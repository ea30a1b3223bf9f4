//go:build race

package scanner

// raceEnabled reports a race-detector build; recycled batches poison there.
const raceEnabled = true
