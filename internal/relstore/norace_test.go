//go:build !race

package relstore_test

const raceEnabled = false
