//go:build race

package recycler

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
