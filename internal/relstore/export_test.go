package relstore

import "math/rand"

// ChurnRound applies one round of the benchmark's write bundle (churn,
// patch_test.go) to tab, for the external test package — the one that may
// import datagen, which itself imports relstore.
func ChurnRound(tab *Table) {
	(&churn{tab: tab, rng: rand.New(rand.NewSource(1))}).round()
}
