package relstore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// servedOps pins tab's current snapshot, builds its columnar view, and
// returns both with what the two cost — the cold rebuild the caller then
// diffs against must stay out of the count.
func servedOps(tab *Table) (*Snapshot, BuildOps) {
	before := ReadBuildOps()
	snap := tab.Snapshot()
	snap.Columnar()
	return snap, ReadBuildOps().Sub(before)
}

// mustPatch fails unless ops are those of a pure patch touching exactly
// touched columns of arity.
func mustPatch(t *testing.T, what string, ops BuildOps, touched, arity int) {
	t.Helper()
	if ops.PatchedColumns != int64(touched) || ops.SharedColumns != int64(arity-touched) ||
		ops.BatchColumns != 0 || ops.RebuiltColumns != 0 || ops.BatchSnapshots != 0 || ops.PLIBuilds != 0 {
		t.Fatalf("%s: want %d patched / %d shared columns and nothing built, got %+v", what, touched, arity-touched, ops)
	}
}

// holdsString reports whether any dictionary of the snapshot's columnar view
// — dead codes included — holds a string satisfying pred.
func holdsString(snap *Snapshot, pred func(string) bool) (string, bool) {
	for _, col := range snap.Columnar().cols {
		for _, v := range col.dict {
			if v.Kind() == types.KindString && pred(v.Str()) {
				return v.Str(), true
			}
		}
	}
	return "", false
}

// forkChurn returns a churn over a Clone of c's table (and model) whose
// fresh values carry serials from 500 000 up, so they are told from the
// source's by name.
func forkChurn(c *churn) *churn {
	return &churn{twin: c.clone(), rng: rand.New(rand.NewSource(2)), serial: 500000,
		typod: append([]typo(nil), c.typod...)}
}

func isForkValue(s string) bool { return len(s) > 6 && s[len(s)-6] >= '5' && s[len(s)-6] <= '9' }

// TestCloneForksTheLineage: Clone() of a warm table builds nothing and
// allocates nothing per row, its first read is the source's own columns, and
// from there the two tables patch independently — a novel value on either
// side forks or grows only the column it touches and never shows in the
// other's dictionaries.
func TestCloneForksTheLineage(t *testing.T) {
	const n, arity = 10000, 7
	c := newChurn(n)
	warm(c.tab)
	c.round()
	warm(c.tab) // the served view is itself a patched one

	before := ReadBuildOps()
	cw := c.clone()
	clone := cw.tab
	if ops := ReadBuildOps().Sub(before); ops != (BuildOps{}) {
		t.Fatalf("Clone of a warm table built something: %+v", ops)
	}
	// O(columns + overlay): the same allocations at 2 000 and 20 000 rows,
	// with an empty overlay and with one round of edits pending.
	var allocs [2][2]float64
	for i, rows := range []int{2000, 20000} {
		small := newChurn(rows)
		warm(small.tab)
		allocs[i][0] = testing.AllocsPerRun(3, func() { small.tab.Clone() })
		small.round()
		allocs[i][1] = testing.AllocsPerRun(3, func() { small.tab.Clone() })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Clone allocations (empty overlay, one round pending): %v at 2 000 rows, %v at 20 000", allocs[0], allocs[1])
	}
	if clone.Version() != c.tab.Version() || clone.Len() != c.tab.Len() {
		t.Fatalf("clone at version %d with %d rows, source at %d with %d", clone.Version(), clone.Len(), c.tab.Version(), c.tab.Len())
	}
	src := c.tab.Snapshot().Columnar()
	snap, ops := servedOps(clone)
	if ops != (BuildOps{}) {
		t.Fatalf("the clone's first read built something: %+v", ops)
	}
	for j, col := range snap.Columnar().cols {
		if col != src.cols[j] || !col.pliReady.Load() {
			t.Fatalf("column %d of the clone's first view is not the source's warm column", j)
		}
	}
	checkTwin(t, cw)

	// A novel value on each side, in both orders.
	id := c.m.ids[100]
	for i, cloneFirst := range []bool{true, false} {
		fork := c.clone()
		sides := []struct {
			w   *twin
			val string
		}{{fork, fmt.Sprintf("fork-only-%d", i)}, {c.twin, fmt.Sprintf("source-only-%d", i)}}
		if !cloneFirst {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			s.w.setCell(id, churnSTR, types.NewString(s.val))
			_, ops := servedOps(s.w.tab)
			mustPatch(t, s.val, ops, 1, arity)
			checkTwin(t, s.w)
		}
		if v, ok := holdsString(c.tab.Snapshot(), func(s string) bool { return strings.HasPrefix(s, "fork-only") }); ok {
			t.Fatalf("source dictionary holds the clone's %q", v)
		}
		if v, ok := holdsString(fork.tab.Snapshot(), func(s string) bool { return s == fmt.Sprintf("source-only-%d", i) }); ok {
			t.Fatalf("clone dictionary holds the source's %q", v)
		}
	}

	// 30 rounds of the benchmark's write bundle, alternating sides: every
	// round patches all seven columns of its side (it inserts and deletes;
	// STR's reverted typos cross the compaction threshold on the way) and
	// batch-builds nothing on either. (On a smaller pair: each version is
	// checked against its table's model.)
	c = newChurn(2000)
	warm(c.tab)
	f := forkChurn(c)
	sourceSerial := c.serial
	for round := 0; round < 30; round++ {
		side := c
		if round%2 == 1 {
			side = f
		}
		side.round()
		for _, w := range []*twin{c.twin, f.twin} {
			_, ops := servedOps(w.tab)
			if w == side.twin {
				if ops.PatchedColumns+ops.RebuiltColumns != arity || ops.BatchColumns != 0 || ops.BatchSnapshots != 0 || ops.PLIBuilds != 0 {
					t.Fatalf("round %d: want %d columns patched and nothing batch-built, got %+v", round, arity, ops)
				}
			} else if ops != (BuildOps{}) {
				t.Fatalf("round %d: the idle side built something: %+v", round, ops)
			}
			if err := w.check(); err != nil {
				t.Fatalf("round %d, version %d: %v", round, w.tab.Version(), err)
			}
		}
	}
	if v, ok := holdsString(c.tab.Snapshot(), isForkValue); ok {
		t.Errorf("source dictionary holds the clone's %q", v)
	}
	late := func(s string) bool {
		var serial int
		_, err := fmt.Sscanf(s[max(0, len(s)-6):], "%d", &serial)
		return err == nil && serial > sourceSerial && serial < 500000
	}
	if v, ok := holdsString(f.tab.Snapshot(), late); ok {
		t.Errorf("clone dictionary holds %q, which the source interned after the fork", v)
	}
}

// TestForkedLineagesUnderReaders runs the same alternating churn on a source
// and its clone while readers on both tables keep building the served
// columnar views and probing their dictionaries: under -race, any growth of
// a shared dictionary, key table or lookup map by the wrong side shows.
func TestForkedLineagesUnderReaders(t *testing.T) {
	c := newChurn(1000)
	warm(c.tab)
	f := forkChurn(c)
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	probes := []types.Value{types.NewString("street3"), types.NewString("edit500001"), types.NewInt(44), types.Null}
	for _, tab := range []*Table{c.tab, f.tab, c.tab, f.tab} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				col := tab.Snapshot().Columnar()
				for j := 0; j < col.NumCols(); j++ {
					for _, v := range probes {
						col.Col(j).EqCodeOf(v)
					}
					col.Col(j).KeyOf(col.Col(j).Code(0))
				}
			}
		}()
	}
	for round := 0; round < 30; round++ {
		side := c
		if round%2 == 1 {
			side = f
		}
		side.round()
		// A second fork mid-run, patched once and dropped: forks of one
		// column do not see each other either.
		extra := side.clone()
		extra.setCell(extra.m.ids[5], churnSTR, types.NewString("extra"))
		for _, w := range []*twin{c.twin, f.twin, extra} {
			if err := w.check(); err != nil {
				done.Store(true)
				wg.Wait()
				t.Fatalf("round %d, version %d: %v", round, w.tab.Version(), err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestRowOnlyReadsKeepTheLineage: rows are a view over the columns, so a
// version that was only ever read by rows is a lineage member like any
// other — the next read patches across the delta, and the superseded
// snapshot keeps decoding its own version.
func TestRowOnlyReadsKeepTheLineage(t *testing.T) {
	const arity = 7
	c := newChurn(2000)
	warm(c.tab)
	c.round()
	rowOnly := c.tab.Snapshot()
	pinned := c.m.snapshot(c.tab.Schema())
	rows := 0
	rowOnly.Scan(func(TupleID, Tuple) bool { rows++; return true })
	c.round()

	_, ops := servedOps(c.tab)
	mustPatch(t, "after a row-only version", ops, arity, arity)
	if appended := int64(4 * arity); ops.InternedCells > appended {
		t.Errorf("InternedCells = %d, want <= %d (the rows the round appended)", ops.InternedCells, appended)
	}
	if err := DiffSnapshots(rowOnly, pinned); err != nil {
		t.Errorf("superseded row-only snapshot (%d rows scanned): %v", rows, err)
	}
	checkTwin(t, c.twin)
}

// TestOverlayFoldUnderReaders: writers fill the overlay — inserts, deletes,
// whole-row updates — while readers fold it, scan pinned snapshots through
// the shared decode buffer, and read points through the overlay. Every row
// any reader sees must be one some writer stored whole (B is always "v"+A),
// and a pinned snapshot must scan the same rows twice: under -race, a fold
// or a write touching memory a reader decodes from shows.
func TestOverlayFoldUnderReaders(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B", "C"))
	row := func(k, junk int) Tuple {
		return Tuple{types.NewInt(int64(k)), types.NewString(fmt.Sprint("v", k)), types.NewInt(int64(junk))}
	}
	for i := 0; i < 500; i++ {
		tab.MustInsert(row(i%37, i))
	}
	whole := func(r Tuple) bool { return r[1].Str() == fmt.Sprint("v", r[0].Int()) }
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		readers sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				id := TupleID(rng.Intn(500 + 2*i + 1)) // may be deleted, or not yet inserted
				switch rng.Intn(4) {
				case 0:
					tab.MustInsert(row(rng.Intn(50), i))
				case 1:
					tab.Delete(id)
				default:
					_ = tab.Update(id, row(rng.Intn(50), i)) // the id may be gone
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20 || !done.Load(); i++ {
				snap := tab.Snapshot()
				var first []string
				snap.Scan(func(id TupleID, row Tuple) bool {
					if !whole(row) {
						t.Errorf("scan of version %d: row %d = %v is torn", snap.Version(), id, row)
					}
					first = append(first, row.String())
					return true
				})
				i := 0
				snap.Scan(func(id TupleID, row Tuple) bool {
					if got, _ := snap.Get(id); row.String() != first[i] || got.String() != first[i] {
						t.Errorf("version %d row %d: scanned %s, then %s, Get %s", snap.Version(), id, first[i], row, got)
					}
					i++
					return true
				})
				for id := TupleID(0); id < 50; id++ {
					if got, ok := tab.Get(id); ok && !whole(got) {
						t.Errorf("Get(%d) = %v is torn", id, got)
					}
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if err := DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Fatal(err)
	}
}
