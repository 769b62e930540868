package relstore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// forkChurn returns a churn over a Clone of c's table whose fresh values
// carry serials from 500 000 up, so they are told from the source's by name.
func forkChurn(c *churn) *churn {
	return &churn{tab: c.tab.Clone(), rng: rand.New(rand.NewSource(2)), serial: 500000,
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
	clone := c.tab.Clone()
	if ops := ReadBuildOps().Sub(before); ops != (BuildOps{}) {
		t.Fatalf("Clone of a warm table built something: %+v", ops)
	}
	if allocs := testing.AllocsPerRun(3, func() { c.tab.Clone() }); allocs > 64 {
		t.Errorf("Clone makes %.0f allocations on %d rows, want <= 64: something per row", allocs, n)
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
	checkAgainstRebuild(t, clone)

	// A novel value on each side, in both orders.
	ids := c.tab.IDs()
	for i, cloneFirst := range []bool{true, false} {
		fork := c.tab.Clone()
		sides := []struct {
			tab *Table
			val string
		}{{fork, fmt.Sprintf("fork-only-%d", i)}, {c.tab, fmt.Sprintf("source-only-%d", i)}}
		if !cloneFirst {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			if _, err := s.tab.SetCell(ids[100], churnSTR, types.NewString(s.val)); err != nil {
				t.Fatal(err)
			}
			_, ops := servedOps(s.tab)
			mustPatch(t, s.val, ops, 1, arity)
			checkAgainstRebuild(t, s.tab)
		}
		if v, ok := holdsString(c.tab.Snapshot(), func(s string) bool { return strings.HasPrefix(s, "fork-only") }); ok {
			t.Fatalf("source dictionary holds the clone's %q", v)
		}
		if v, ok := holdsString(fork.Snapshot(), func(s string) bool { return s == fmt.Sprintf("source-only-%d", i) }); ok {
			t.Fatalf("clone dictionary holds the source's %q", v)
		}
	}

	// 30 rounds of the benchmark's write bundle, alternating sides: every
	// round patches all seven columns of its side (it inserts and deletes;
	// STR's reverted typos cross the compaction threshold on the way) and
	// batch-builds nothing on either. (On a smaller pair: each version is
	// checked against a cold rebuild of its table.)
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
		for _, tab := range []*Table{c.tab, f.tab} {
			snap, ops := servedOps(tab)
			if tab == side.tab {
				if ops.PatchedColumns+ops.RebuiltColumns != arity || ops.BatchColumns != 0 || ops.BatchSnapshots != 0 || ops.PLIBuilds != 0 {
					t.Fatalf("round %d: want %d columns patched and nothing batch-built, got %+v", round, arity, ops)
				}
			} else if ops != (BuildOps{}) {
				t.Fatalf("round %d: the idle side built something: %+v", round, ops)
			}
			if err := DiffSnapshots(snap, tab.RebuildSnapshot()); err != nil {
				t.Fatalf("round %d, version %d: %v", round, tab.Version(), err)
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
		extra := side.tab.Clone()
		if _, err := extra.SetCell(extra.IDs()[5], churnSTR, types.NewString("extra")); err != nil {
			t.Fatal(err)
		}
		for _, tab := range []*Table{c.tab, f.tab, extra} {
			if err := DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
				done.Store(true)
				wg.Wait()
				t.Fatalf("round %d, version %d: %v", round, tab.Version(), err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestRowOnlyReadsKeepTheLineage: a version that was only ever read by rows
// does not end the column lineage — it hands its patch base on, so the next
// columnar read patches across both deltas — and a reader still holding the
// row-only snapshot who asks for columns afterwards batch-builds its own,
// leaving the successor's alone.
func TestRowOnlyReadsKeepTheLineage(t *testing.T) {
	const arity = 7
	c := newChurn(2000)
	warm(c.tab)
	c.round()
	rowOnly := c.tab.Snapshot()
	rows := 0
	rowOnly.Scan(func(TupleID, Tuple) bool { rows++; return true })
	rowOnlyRebuilt := c.tab.RebuildSnapshot()
	c.round()

	snap, ops := servedOps(c.tab)
	if ops.PatchedSnapshots < 1 || ops.BatchSnapshots != 0 || ops.BatchColumns != 0 || ops.RebuiltColumns != 0 ||
		ops.PatchedColumns != arity || ops.PLIBuilds != 0 {
		t.Fatalf("columnar read after a row-only version did not patch: %+v", ops)
	}
	if appended := int64(2 * 4 * arity); ops.InternedCells > appended {
		t.Errorf("InternedCells = %d, want <= %d (the rows two rounds appended)", ops.InternedCells, appended)
	}

	before := ReadBuildOps()
	rowOnly.Columnar()
	if ops := ReadBuildOps().Sub(before); ops.BatchColumns != arity || ops.PatchedColumns != 0 {
		t.Errorf("late Columnar() on the superseded row-only snapshot: want a batch build of its own, got %+v", ops)
	}
	if err := DiffSnapshots(rowOnly, rowOnlyRebuilt); err != nil {
		t.Errorf("superseded row-only snapshot (%d rows scanned): %v", rows, err)
	}
	if err := DiffSnapshots(snap, c.tab.RebuildSnapshot()); err != nil {
		t.Errorf("successor after the late build: %v", err)
	}
	c.round()
	_, ops = servedOps(c.tab)
	mustPatch(t, "next round", ops, arity, arity)
	checkAgainstRebuild(t, c.tab)
}
