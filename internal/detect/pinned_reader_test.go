package detect_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// TestPinnedReaderDuringPatch: a patched column shares its predecessor's
// lookup maps and dictionary backing arrays and grows them in place
// (relstore/columnar.go). A reader pinned to the predecessor must be able to
// look values up, build its lazy artifacts and detect while successors are
// patched and appended to — same answers throughout, no data race (the CI
// race run executes this test). Readers and writer overlap by construction:
// the writer keeps patching until every reader has finished several full
// passes since it started.
func TestPinnedReaderDuringPatch(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Generate(datagen.Config{Tuples: 300, Seed: 11, NoiseRate: 0.05})
	tab, cfds := ds.Dirty, datagen.StandardCFDs()
	sc := tab.Schema()
	name, str := sc.MustPos("NAME"), sc.MustPos("STR")

	serial := 0
	for round := 0; round < 4; round++ {
		pinned := tab.Snapshot()
		col := pinned.Columnar() // built, so the successor patches from it; PLIs and keys stay lazy
		fr, err := detect.DetectFactorised(ctx, pinned, cfds)
		if err != nil {
			t.Fatal(err)
		}
		want := fr.Explode()
		stored, base := pinned.Row(0), serial

		const readers = 2
		var (
			wg     sync.WaitGroup
			passes [readers]atomic.Int64
			stop   atomic.Bool
		)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for !stop.Load() {
					for j := 0; j < col.NumCols(); j++ {
						c := col.Col(j)
						if _, ok := c.EqCodeOf(stored[j]); !ok {
							t.Errorf("column %d lost row 0's value %v", j, stored[j])
						}
						// Values only successors hold: never visible here.
						for k := base + 1; k <= base+4; k++ {
							if _, ok := c.EqCodeOf(novel(k)); ok {
								t.Errorf("pinned column %d sees a successor's value %v", j, novel(k))
							}
						}
						c.EnsureKeys()
						if c.PLI().NumRows() != pinned.Len() {
							t.Errorf("column %d PLI covers %d rows, snapshot has %d", j, c.PLI().NumRows(), pinned.Len())
						}
					}
					fr, err := detect.DetectFactorised(ctx, pinned, cfds)
					if err != nil {
						t.Error(err)
						return
					}
					if got := fr.Explode(); !reflect.DeepEqual(got, want) {
						t.Errorf("pinned snapshot's report changed while its successor was patched")
					}
					passes[r].Add(1)
				}
			}(r)
		}
		// The writer: novel NAMEs and STRs, an insert and a delete per
		// version, each version read (and so patched) before the next.
		for patches := 0; patches < 8 || passes[0].Load() < 3 || passes[1].Load() < 3; patches++ {
			ids := tab.Snapshot().IDs()
			serial++
			if _, err := tab.SetCell(ids[patches%len(ids)], name, novel(serial)); err != nil {
				t.Fatal(err)
			}
			serial++
			if _, err := tab.SetCell(ids[(3*patches+1)%len(ids)], str, novel(serial)); err != nil {
				t.Fatal(err)
			}
			row := pinned.Row(patches % pinned.Len()).Clone()
			serial++
			row[name] = novel(serial)
			tab.MustInsert(row)
			tab.Delete(ids[0])
			tab.Snapshot().Columnar()
		}
		stop.Store(true)
		wg.Wait()
		if err := relstore.DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
}

func novel(k int) types.Value { return types.NewString(fmt.Sprintf("novel%05d", k)) }
