package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// patchValues is the value domain the patch tests mutate over, chosen to
// exercise every dictionary subtlety: Equal-but-not-exact numeric pairs
// (INT 1 / FLOAT 1.0), NULL, NaN, bools and plain strings.
var patchValues = []types.Value{
	types.NewString("a"),
	types.NewString("b"),
	types.NewString("c"),
	types.NewInt(1),
	types.NewFloat(1.0),
	types.NewInt(2),
	types.NewFloat(2.5),
	types.Null,
	types.NewFloat(math.NaN()),
	types.NewBool(true),
	types.NewString(""),
}

func patchValue(i int) types.Value {
	return patchValues[((i%len(patchValues))+len(patchValues))%len(patchValues)]
}

// checkTwin holds w's table to its model (twin.check): point reads, and the
// served snapshot against a batch build of the model up to a renaming of
// dictionary codes, every artifact force-built on both sides.
func checkTwin(t *testing.T, w *twin) {
	t.Helper()
	if err := w.check(); err != nil {
		t.Fatalf("table diverged from its model at version %d: %v", w.tab.Version(), err)
	}
}

// TestPatchedSnapshotMatchesRebuild drives random mutation sequences and
// holds the serving path to the delta contract at every intermediate
// version. The per-version check also force-builds every lazy
// artifact, so each subsequent snapshot derives from a fully warm
// predecessor — the hardest case for the patcher.
func TestPatchedSnapshotMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		row := func() Tuple {
			return Tuple{
				patchValue(rng.Intn(len(patchValues))),
				patchValue(rng.Intn(len(patchValues))),
				patchValue(rng.Intn(len(patchValues))),
			}
		}
		w := newTwin(schema.New("p", "A", "B", "C"))
		for i := 0; i < 12; i++ {
			w.insert(row())
		}
		checkTwin(t, w)
		for step := 0; step < 60; step++ {
			ids := w.m.ids
			switch op := rng.Intn(4); {
			case op == 0 || len(ids) == 0:
				w.insert(row())
			case op == 1:
				w.delete(ids[rng.Intn(len(ids))])
			case op == 2:
				w.setCell(ids[rng.Intn(len(ids))], rng.Intn(3), patchValue(rng.Intn(len(patchValues))))
			default:
				w.update(ids[rng.Intn(len(ids))], row())
			}
			checkTwin(t, w)
		}
	}
}

// TestUpdateRepresentationChange pins the subtlest delta: Update swapping
// INT 1 for FLOAT 1.0 changes the stored representation (and the columnar
// dictionary) even though the values compare Equal, so the patcher must
// see it.
func TestUpdateRepresentationChange(t *testing.T) {
	w := newTwin(schema.New("p", "A"))
	w.insert(Tuple{types.NewFloat(1.0)})
	id := w.insert(Tuple{types.NewInt(1)})
	w.insert(Tuple{types.NewInt(1)})
	checkTwin(t, w)
	w.update(id, Tuple{types.NewFloat(1.0)})
	checkTwin(t, w)
}

// churn replays the benchmark's write bundle (benchmark/gen.go, mix) on a
// customer-shaped table: per round 40 cells take a never-seen NAME, 8 STR
// cells a never-seen typo, 8 older typos are reverted, 4 rows are inserted
// and 4 deleted — always the table's first rows, which hold the first
// occurrence of every value they carry. That is one novel value or one
// removed first occurrence per edit: what dirty data looks like, and what
// a first-occurrence code numbering could not patch.
type churn struct {
	*twin
	rng    *rand.Rand
	serial int
	typod  []typo // pending typos, oldest first
}

type typo struct {
	id    TupleID
	clean types.Value
}

const (
	churnNAME = 0
	churnSTR  = 4
)

func newChurn(n int) *churn {
	c := &churn{
		twin: newTwin(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC")),
		rng:  rand.New(rand.NewSource(1)),
	}
	for i := 0; i < n; i++ {
		zip := i % (n / 40)
		c.insert(Tuple{
			c.fresh("name"),
			types.NewString([]string{"UK", "US"}[zip%2]),
			types.NewString(fmt.Sprintf("city%d", zip/8)),
			types.NewString(fmt.Sprintf("zip%d", zip)),
			types.NewString(fmt.Sprintf("street%d", zip/2)),
			types.NewInt(int64(44 - 43*(zip%2))),
			types.NewInt(int64(100 + zip/8)),
		})
	}
	c.round() // leave typos pending for the first measured round to revert
	return c
}

func (c *churn) fresh(prefix string) types.Value {
	c.serial++
	return types.NewString(fmt.Sprintf("%s%06d", prefix, c.serial))
}

func (c *churn) round() {
	ids := slices.Clone(c.m.ids)
	pick := func() TupleID { return ids[4+c.rng.Intn(len(ids)-4)] } // never a row deleted below
	for i := 0; i < 40; i++ {
		c.setCell(pick(), churnNAME, c.fresh("edit"))
	}
	for i := 0; i < 8 && len(c.typod) > 0; i++ {
		t := c.typod[0]
		c.typod = c.typod[1:]
		if _, ok := c.tab.Get(t.id); ok {
			c.setCell(t.id, churnSTR, t.clean)
		}
	}
	for i := 0; i < 8; i++ {
		id := pick()
		c.typod = append(c.typod, typo{id, c.setCell(id, churnSTR, c.fresh("typo"))})
	}
	for i := 0; i < 4; i++ {
		row, _ := c.tab.Get(pick())
		row[churnNAME] = c.fresh("edit")
		c.insert(row)
		c.delete(ids[i])
	}
}

// warm builds every lazy artifact of the served snapshot, so the next
// version has all of them to carry over.
func warm(tab *Table) {
	col := tab.Snapshot().Columnar()
	for j := 0; j < col.NumCols(); j++ {
		col.Col(j).PLI()
		col.Col(j).EqProbe()
		col.Col(j).EnsureKeys()
	}
}

// TestPatchOpsAreODelta is the unit-level face of the O(delta) claim, on the
// benchmark's edit mix at the benchmark's size: serving a snapshot after 64
// row edits — 52 novel values, 4 deleted first occurrences — on a warm
// 20 000-row table patches all seven columns, interns only the appended
// cells, and allocates flat 4-byte vectors only: nothing proportional to a
// dictionary's cardinality is hashed or cloned.
func TestPatchOpsAreODelta(t *testing.T) {
	const n, arity = 20000, 7
	c := newChurn(n)
	warm(c.tab)
	c.round()
	warm(c.tab)
	c.round()

	dicts := 0
	for _, col := range c.tab.base.c.cols {
		dicts += col.CodeSpace()
	}
	before := ReadBuildOps()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.tab.Snapshot()
	runtime.ReadMemStats(&m1)
	ops := ReadBuildOps().Sub(before)

	if ops.PatchedSnapshots != 1 || ops.BatchSnapshots != 0 {
		t.Fatalf("PatchedSnapshots = %d BatchSnapshots = %d, want 1/0 (ops: %+v)", ops.PatchedSnapshots, ops.BatchSnapshots, ops)
	}
	if ops.PatchedColumns != arity || ops.RebuiltColumns != 0 || ops.BatchColumns != 0 {
		t.Errorf("PatchedColumns = %d RebuiltColumns = %d BatchColumns = %d, want %d/0/0",
			ops.PatchedColumns, ops.RebuiltColumns, ops.BatchColumns, arity)
	}
	if ops.InternedCells > 64 {
		t.Errorf("InternedCells = %d, want <= 64 for 64 row edits", ops.InternedCells)
	}
	if ops.PLIPatches != arity || ops.PLIBuilds != 0 {
		t.Errorf("PLIPatches = %d PLIBuilds = %d, want %d/0", ops.PLIPatches, ops.PLIBuilds, arity)
	}
	// What a fold may allocate: the spliced id vector (8 B a row) and, per
	// column, the spliced code vector, the PLI's elems (4 B a row each), and
	// a handful of vectors indexed by code (counts, class counts, class
	// index, offsets: 4 B a code each). Cloning NAME's 20 000-entry string
	// map alone would add ~0.5 MB.
	budget := uint64(8*n+4*(2*n*arity+5*dicts)) * 5 / 4
	if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
		t.Errorf("patch allocated %d bytes, budget %d: something O(cardinality) beyond flat code vectors", got, budget)
	}
	if got := m1.Mallocs - m0.Mallocs; got > 1000 {
		t.Errorf("patch made %d allocations for 64 row edits, want a few per edit", got)
	}
	checkTwin(t, c.twin)
}

// TestChurnBoundsDeadCodes: 240 rounds of the benchmark's edit mix kill
// ~50 values a round; compaction must keep every dictionary within
// 1.25 x live + 64 entries at every version (dead codes cannot grow the
// heap; deadLimit is tighter still), and the patched state must stay
// correct across the compactions.
func TestChurnBoundsDeadCodes(t *testing.T) {
	c := newChurn(2000)
	warm(c.tab)
	before := ReadBuildOps()
	for round := 0; round < 240; round++ {
		c.round()
		col := c.tab.Snapshot().Columnar()
		for j := 0; j < col.NumCols(); j++ {
			if cc := col.Col(j); cc.CodeSpace() > cc.Card()+cc.Card()/4+compactDead {
				t.Fatalf("round %d column %d: %d codes for %d live values", round, j, cc.CodeSpace(), cc.Card())
			}
		}
		if round%16 == 0 {
			checkTwin(t, c.twin)
			warm(c.tab)
		}
	}
	checkTwin(t, c.twin)
	ops := ReadBuildOps().Sub(before)
	if ops.RebuiltColumns == 0 {
		t.Error("240 rounds of dying values never compacted a column")
	}
	if ops.RebuiltColumns > 240*7/8 {
		t.Errorf("%d compactions in 240 rounds: the threshold does not amortise", ops.RebuiltColumns)
	}
}

func TestChangesSince(t *testing.T) {
	tab := NewTable(schema.New("p", "A", "B"))
	v0 := tab.Version()
	id := tab.MustInsert(strs("x", "y"))
	if _, err := tab.SetCell(id, 1, types.NewString("z")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok := tab.ChangesSince(v0)
	if !ok || rowsStable || !changed[1] || changed[0] {
		t.Fatalf("ChangesSince(v0) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	v2 := tab.Version()
	if _, err := tab.SetCell(id, 0, types.NewString("w")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok = tab.ChangesSince(v2)
	if !ok || !rowsStable || !changed[0] || changed[1] {
		t.Fatalf("ChangesSince(v2) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	// A no-op update (same representation) advances the version but logs
	// no changes.
	v3 := tab.Version()
	if err := tab.Update(id, strs("w", "z")); err != nil {
		t.Fatal(err)
	}
	if tab.Version() == v3 {
		t.Fatal("no-op update did not advance the version")
	}
	changed, rowsStable, ok = tab.ChangesSince(v3)
	if !ok || !rowsStable || changed[0] || changed[1] {
		t.Fatalf("ChangesSince(v3) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	// Future versions are not answerable.
	if _, _, ok := tab.ChangesSince(tab.Version() + 1); ok {
		t.Error("ChangesSince answered for a future version")
	}
}

func TestChangesSinceLogOverflow(t *testing.T) {
	tab := NewTable(schema.New("p", "A"))
	id := tab.MustInsert(strs("x"))
	since := tab.Version()
	for i := 0; i < maxChangeLog+10; i++ {
		v := "a"
		if i%2 == 0 {
			v = "b"
		}
		if _, err := tab.SetCell(id, 0, types.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tab.ChangesSince(since); ok {
		t.Error("ChangesSince answered past the evicted log floor")
	}
	// Recent intervals stay answerable after eviction.
	recent := tab.Version()
	if _, err := tab.SetCell(id, 0, types.NewString("q")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok := tab.ChangesSince(recent)
	if !ok || !rowsStable || !changed[0] {
		t.Fatalf("ChangesSince(recent) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
}

// TestLargeOverlayFolds: there is no delta too large to fold — the overlay
// is the only copy of what changed. 4 097 rewrites of one cell, then 4 097
// inserts into the same version, fold into one patched snapshot with no batch
// build, and the table still equals its model.
func TestLargeOverlayFolds(t *testing.T) {
	w := newTwin(schema.New("p", "A"))
	id := w.insert(strs("x"))
	w.tab.Snapshot() // the base the overlay builds on
	for i := 0; i <= 4096; i++ {
		w.setCell(id, 0, types.NewString([]string{"a", "b"}[i%2]))
		w.insert(strs(fmt.Sprint(i % 300)))
	}
	before := ReadBuildOps()
	w.tab.Snapshot()
	if ops := ReadBuildOps().Sub(before); ops.PatchedSnapshots != 1 || ops.BatchSnapshots != 0 || ops.BatchColumns != 0 {
		t.Errorf("a large overlay: %+v, want one patched snapshot and nothing batch-built", ops)
	}
	checkTwin(t, w)
}

// TestPatchSharesUntouchedColumns: a patched snapshot shares untouched
// columns with its predecessor wholesale — pointer identity, caches and
// all.
func TestPatchSharesUntouchedColumns(t *testing.T) {
	w := newTwin(schema.New("p", "A", "B"))
	id := w.insert(strs("x", "y"))
	w.insert(strs("x", "z"))
	prev := w.tab.Snapshot().Columnar()
	w.setCell(id, 1, types.NewString("q"))
	next := w.tab.Snapshot().Columnar()
	if next.Col(0) != prev.Col(0) {
		t.Error("untouched column was not shared with the predecessor")
	}
	if &next.IDs()[0] != &prev.IDs()[0] {
		t.Error("a fold that dropped and appended nothing copied the id vector")
	}
	checkTwin(t, w)
}
