//go:build !race

package websim

// raceEnabled reports a race-detector build, whose instrumentation
// allocates where a plain build does not.
const raceEnabled = false
