//go:build race

package codec

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it.
const raceEnabled = true
