//go:build race

package h3

// raceEnabled reports a race-detector build, whose instrumentation
// allocates where a plain build does not.
const raceEnabled = true
