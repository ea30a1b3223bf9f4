//go:build race

package transport

// raceEnabled reports a race-detector build; arenas poison there.
const raceEnabled = true
