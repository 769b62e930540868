package relstore

import (
	"math/rand"
	"sync/atomic"
)

// ChurnRound applies one round of the benchmark's write bundle (churn,
// patch_test.go) to tab, for the external test package — the one that may
// import datagen, which itself imports relstore.
func ChurnRound(tab *Table) {
	(&churn{twin: twinOf(tab), rng: rand.New(rand.NewSource(1))}).round()
}

// CountDecodes counts the rows every snapshot decodes from now until the
// returned stop is called, which reports the count. Not for concurrent use
// with another counter.
func CountDecodes() (stop func() int) {
	var n atomic.Int64
	decodeHook = func() { n.Add(1) }
	return func() int {
		decodeHook = nil
		return int(n.Load())
	}
}
