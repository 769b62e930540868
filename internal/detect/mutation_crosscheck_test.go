// The mutation cross-check tier, rebuilt on the reusable oracle harness
// (internal/oracle): every test drives mutations through the incremental
// stack — tracker, snapshot patcher, discovery session — and asserts the
// maintained state is byte-identical to cold rebuilds at every
// intermediate version. An external test package, because the oracle
// imports detect.
package detect_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/cfddef"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/oracle"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestTrackerMutationSequenceByteIdentical drives a randomized
// insert/delete/set stream — tiny domains, so multi-tuple groups
// repeatedly flip dirty and heal clean — and asserts the whole
// incremental stack stays byte-identical to cold rebuilds throughout.
func TestTrackerMutationSequenceByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h, err := oracle.New(oracle.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog := make([]byte, 600)
	for i := range prog {
		prog[i] = byte(rng.Intn(256))
	}
	// Check every 5 decoded ops: dense enough to pin a divergence to a
	// handful of mutations, cheap enough to run a long program.
	if err := h.Drive(prog, 5, func() error { return h.Check(t.Context()) }); err != nil {
		t.Fatal(err)
	}
}

// TestOracleAcrossNoiseRates replays edit workloads over the paper's
// customer relation at 0%, 2% and 10% noise, cross-checking tracker,
// patcher and discovery session against cold rebuilds at every version.
func TestOracleAcrossNoiseRates(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.10} {
		t.Run(fmt.Sprintf("noise=%v", noise), func(t *testing.T) {
			ds := datagen.Generate(datagen.Config{Tuples: 200, Seed: 7, NoiseRate: noise})
			tab := ds.Dirty
			cfds := datagen.StandardCFDs()
			h, err := oracle.Attach(tab, cfds, discovery.Options{MinSupport: 4, MaxLHS: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(noise * 100)))
			cities := []string{"Edinburgh", "London", "New York", "Chicago"}
			countries := []string{"UK", "US"}
			ids := slices.Clone(tab.Snapshot().IDs())
			for step := 0; step < 12; step++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(3) {
				case 0:
					if err := h.SetCell(id, "CITY", types.NewString(cities[rng.Intn(len(cities))])); err != nil {
						t.Fatal(err)
					}
				case 1:
					if err := h.SetCell(id, "CNT", types.NewString(countries[rng.Intn(len(countries))])); err != nil {
						t.Fatal(err)
					}
				default:
					row, ok := tab.Get(id)
					if !ok {
						t.Fatalf("lost tuple %d", id)
					}
					if err := h.Delete(id); err != nil {
						t.Fatal(err)
					}
					nid, err := h.Insert(row)
					if err != nil {
						t.Fatal(err)
					}
					ids[len(ids)-1] = nid
				}
				if err := h.Check(t.Context()); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestTrackerConcurrentUseRace hits the tracker from concurrent writers
// and readers. Writes serialize on the tracker's lock — the only lock under
// which its scratch buffers are touched; Vio, VioMap, DirtyCount,
// FactorReport and Report run concurrently. Before the tracker was
// goroutine-safe this was a guaranteed -race failure (and often a runtime
// "concurrent map writes" crash).
func TestTrackerConcurrentUseRace(t *testing.T) {
	tab := relstore.NewTable(schema.New("m", "K", "V"))
	cfds, err := cfd.ParseSet(`m: [K=_] -> [V=_]`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("k%d", i%5)),
			types.NewString(fmt.Sprintf("v%d", i%2)),
		})
	}
	tr, err := detect.NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []relstore.TupleID
			for i := 0; i < 150; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(3) == 0:
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := tr.Delete(id); err != nil {
						t.Error(err)
						return
					}
				case len(mine) > 0 && rng.Intn(3) == 0:
					if err := tr.SetCell(mine[len(mine)-1], "V",
						types.NewString(fmt.Sprintf("v%d", rng.Intn(2)))); err != nil {
						t.Error(err)
						return
					}
				default:
					id, err := tr.Insert(relstore.Tuple{
						types.NewString(fmt.Sprintf("k%d", rng.Intn(5))),
						types.NewString(fmt.Sprintf("v%d", rng.Intn(2))),
					})
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				_ = tr.DirtyCount()
				_ = tr.VioMap()
				// A snapshot a write overtook is refused; one of the
				// tracker's version is served.
				if fr, ok := tr.FactorReport(tab.Snapshot()); ok && fr.Explode().Version != fr.Version {
					t.Error("exploded factorised report changed version")
					return
				}
				rep := tr.Report()
				// Internal sanity: every reported dirty tuple has vio > 0.
				for id, n := range rep.Vio {
					if n <= 0 {
						t.Errorf("report lists vio(%d) = %d", id, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	h, err := oracle.Attach(tab, cfds, discovery.Options{MinSupport: 2, MaxLHS: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The post-race harness attaches a fresh tracker; cross-check the one
	// that absorbed the concurrent writes against batch detection too.
	if err := h.CheckStore(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckDiscovery(t.Context()); err != nil {
		t.Fatal(err)
	}
	batchCheck(t, tab, cfds, tr)
}

// batchCheck cross-checks a live tracker's report against a batch SQL pass
// and its vio(t) against the paper's definition.
func batchCheck(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD, tr *detect.Tracker) {
	t.Helper()
	store := relstore.NewStore()
	store.Put(tab)
	batch, err := detect.NewSQLDetector(store).Detect(t.Context(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if err := detect.Equivalent(batch, tr.Report()); err != nil {
		t.Fatalf("tracker diverged from batch: %v", err)
	}
	if vio, _ := cfddef.Check(tab.Snapshot(), cfds); !maps.Equal(tr.VioMap(), vio) {
		t.Fatalf("tracker vio(t) %v, the definition's %v", tr.VioMap(), vio)
	}
}
