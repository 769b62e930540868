//go:build race

package relstore_test

// raceEnabled reports a -race build, whose instrumentation changes what the
// runtime allocates.
const raceEnabled = true
