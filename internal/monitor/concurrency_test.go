package monitor

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestConcurrentApplyBatches runs update batches from several goroutines —
// the unsynchronized-map-write crash of the old Tracker — interleaved with
// Report readers, then cross-checks the final tracked state against batch
// detection. Run under -race in CI.
func TestConcurrentApplyBatches(t *testing.T) {
	tab := relstore.NewTable(schema.New("m", "K", "V"))
	cfds, err := cfd.ParseSet(`m: [K=_] -> [V=_]`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("k%d", i%4)),
			types.NewString(fmt.Sprintf("v%d", i%3)),
		})
	}
	m, err := New(tab, cfds, false)
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
			for i := 0; i < 40; i++ {
				batch := []Update{{Op: OpInsert, Row: relstore.Tuple{
					types.NewString(fmt.Sprintf("k%d", rng.Intn(4))),
					types.NewString(fmt.Sprintf("v%d", rng.Intn(3))),
				}}}
				if len(mine) > 0 {
					batch = append(batch, Update{
						Op: OpSet, ID: mine[rng.Intn(len(mine))],
						Attr: "V", Value: types.NewString(fmt.Sprintf("v%d", rng.Intn(3))),
					})
				}
				if len(mine) > 2 {
					batch = append(batch, Update{Op: OpDelete, ID: mine[0]})
					mine = mine[1:]
				}
				res, err := m.Apply(batch)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Version <= 0 {
					t.Errorf("batch result not version-stamped: %d", res.Version)
					return
				}
				mine = append(mine, res.Inserted...)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_ = m.DirtyCount()
				_ = m.Report()
			}
		}()
	}
	wg.Wait()

	batch, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if err := detect.Equivalent(batch, m.Report()); err != nil {
		t.Fatalf("monitor diverged from batch detection after concurrent updates: %v", err)
	}
}
