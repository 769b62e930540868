package relstore

import (
	"fmt"
	"math"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func pliTable(t *testing.T, attrs []string, rows [][]string) *Table {
	t.Helper()
	tab := NewTable(schema.New("r", attrs...))
	for _, r := range rows {
		row := make(Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	return tab
}

// pli is column j's one-column partition.
func pli(c *Columnar, j int) *Partition { return c.EqClasses([]int{j}).Partition }

// classSets renders a partition as a set of row-index lists for comparison.
func classSets(p *Partition) map[string]bool {
	out := map[string]bool{}
	for c := 0; c < p.NumClasses(); c++ {
		out[fmt.Sprint(p.Class(c))] = true
	}
	return out
}

func TestPLIEqualClassesCollapseNumericKinds(t *testing.T) {
	// INT 1 and FLOAT 1.0 are Equal and must land in one class; NULLs form
	// their own class.
	tab := pliTable(t, []string{"A"}, [][]string{
		{"1"}, {"1.0"}, {""}, {""}, {"2"},
	})
	p := pli(tab.Snapshot().Columnar(), 0)
	if p.NumClasses() != 3 {
		t.Fatalf("classes = %d, want 3 (1/1.0 merged, NULLs merged, 2)", p.NumClasses())
	}
	want := map[string]bool{"[0 1]": true, "[2 3]": true, "[4]": true}
	if got := classSets(p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("classes = %v, want %v", got, want)
	}
}

func TestPartitionRefinesIsFDCheck(t *testing.T) {
	// ZIP -> CITY holds; CITY -> ZIP does not.
	tab := pliTable(t, []string{"ZIP", "CITY"}, [][]string{
		{"z1", "Edi"}, {"z1", "Edi"}, {"z2", "Edi"}, {"z2", "Edi"}, {"z3", "Lon"},
	})
	col := tab.Snapshot().Columnar()
	zip, city := col.Col(0), col.Col(1)
	if pure, _ := pli(col, 0).Refines(city.EqProbe(), 1<<20, nil); !pure {
		t.Error("ZIP -> CITY should hold")
	}
	if pure, _ := pli(col, 1).Refines(zip.EqProbe(), 1<<20, nil); pure {
		t.Error("CITY -> ZIP should not hold")
	}
	// Refines aborts when stop fires.
	if _, aborted := pli(col, 0).Refines(city.EqProbe(), 1, func() bool { return true }); !aborted {
		t.Error("Refines ignored stop")
	}
}

func TestPartitionIntersectStripsSingletons(t *testing.T) {
	// π_A has classes {0,1,2,3} and {4}; refining by B splits the big class
	// into {0,1} and {2,3}; the singleton class is stripped.
	tab := pliTable(t, []string{"A", "B"}, [][]string{
		{"x", "p"}, {"x", "p"}, {"x", "q"}, {"x", "q"}, {"y", "r"},
	})
	col := tab.Snapshot().Columnar()
	p := pli(col, 0).Intersect(col.Col(1).EqProbe())
	if p.NumClasses() != 2 || p.Size() != 4 {
		t.Fatalf("classes=%d size=%d", p.NumClasses(), p.Size())
	}
	want := map[string]bool{"[0 1]": true, "[2 3]": true}
	if got := classSets(p); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("classes = %v, want %v", got, want)
	}
	if p.NumRows() != 5 {
		t.Errorf("NumRows = %d, want 5 (snapshot size survives stripping)", p.NumRows())
	}
}

func TestPartitionKeepConfidence(t *testing.T) {
	// A -> B almost holds: in the x-class (4 rows) the plurality B value
	// covers 3 rows; the y-row is a kept singleton. Keep = 4.
	tab := pliTable(t, []string{"A", "B"}, [][]string{
		{"x", "p"}, {"x", "p"}, {"x", "p"}, {"x", "q"}, {"y", "r"},
	})
	col := tab.Snapshot().Columnar()
	keep, _ := pli(col, 0).Keep(col.Col(1).EqProbe(), 1, nil)
	if keep != 4 {
		t.Errorf("Keep = %d, want 4", keep)
	}
}

// Degenerate-shape coverage: empty partitions, all-singleton columns and
// single-class columns are exactly the inputs the incremental split/merge
// path produces when a delta empties, shatters or collapses classes.

func TestPLIEmptyTable(t *testing.T) {
	tab := pliTable(t, []string{"A", "B"}, nil)
	col := tab.Snapshot().Columnar()
	p := pli(col, 0)
	if p.NumRows() != 0 || p.NumClasses() != 0 || p.Size() != 0 {
		t.Fatalf("empty PLI: rows=%d classes=%d size=%d", p.NumRows(), p.NumClasses(), p.Size())
	}
	probe := col.Col(1).EqProbe()
	if pure, aborted := p.Refines(probe, 1, nil); !pure || aborted {
		t.Errorf("Refines on empty = %v,%v, want true,false (vacuously pure)", pure, aborted)
	}
	if keep, _ := p.Keep(probe, 1, nil); keep != 0 {
		t.Errorf("Keep on empty = %d, want 0", keep)
	}
	q := p.Intersect(probe)
	if q.NumRows() != 0 || q.NumClasses() != 0 {
		t.Errorf("Intersect on empty: rows=%d classes=%d", q.NumRows(), q.NumClasses())
	}
}

func TestPLIAllSingletonColumn(t *testing.T) {
	// Every value distinct: n singleton classes. No FD can be violated
	// from such an LHS, every row is kept, and intersection strips
	// everything.
	tab := pliTable(t, []string{"A", "B"}, [][]string{
		{"a", "p"}, {"b", "p"}, {"c", "q"}, {"d", "q"},
	})
	col := tab.Snapshot().Columnar()
	p := pli(col, 0)
	if p.NumClasses() != 4 || p.Size() != 4 {
		t.Fatalf("classes=%d size=%d, want 4/4", p.NumClasses(), p.Size())
	}
	probe := col.Col(1).EqProbe()
	if pure, _ := p.Refines(probe, 1, nil); !pure {
		t.Error("all-singleton LHS must satisfy any FD")
	}
	if keep, _ := p.Keep(probe, 1, nil); keep != 4 {
		t.Errorf("Keep = %d, want 4", keep)
	}
	q := p.Intersect(probe)
	if q.NumClasses() != 0 || q.Size() != 0 {
		t.Errorf("Intersect left classes=%d size=%d, want stripped empty", q.NumClasses(), q.Size())
	}
	if q.NumRows() != 4 {
		t.Errorf("Intersect NumRows = %d, want 4", q.NumRows())
	}
	// Intersecting the already-empty result again is stable.
	r := q.Intersect(probe)
	if r.NumClasses() != 0 || r.NumRows() != 4 {
		t.Errorf("re-Intersect: classes=%d rows=%d", r.NumClasses(), r.NumRows())
	}
}

func TestPLISingleClassColumn(t *testing.T) {
	// One value everywhere: a single class holding all rows. The FD check
	// degenerates to "is the RHS constant", Keep to the RHS plurality, and
	// intersection to the RHS partition.
	tab := pliTable(t, []string{"A", "B"}, [][]string{
		{"x", "p"}, {"x", "p"}, {"x", "q"}, {"x", "p"},
	})
	col := tab.Snapshot().Columnar()
	p := pli(col, 0)
	if p.NumClasses() != 1 || p.Size() != 4 {
		t.Fatalf("classes=%d size=%d, want 1/4", p.NumClasses(), p.Size())
	}
	probe := col.Col(1).EqProbe()
	if pure, _ := p.Refines(probe, 1, nil); pure {
		t.Error("A -> B must fail: B is not constant")
	}
	if keep, _ := p.Keep(probe, 1, nil); keep != 3 {
		t.Errorf("Keep = %d, want 3 (plurality p)", keep)
	}
	q := p.Intersect(probe)
	if q.NumClasses() != 1 {
		t.Fatalf("Intersect classes = %d, want 1 ({0,1,3}; the q-row is a stripped singleton)", q.NumClasses())
	}
	if fmt.Sprint(q.Class(0)) != "[0 1 3]" {
		t.Errorf("Intersect class = %v, want [0 1 3]", q.Class(0))
	}
	// Refining a single-class partition by itself keeps it intact.
	self := p.Intersect(col.Col(0).EqProbe())
	if self.NumClasses() != 1 || self.Size() != 4 {
		t.Errorf("self-Intersect: classes=%d size=%d, want 1/4", self.NumClasses(), self.Size())
	}
}

// intersectRef is Intersect's map-based body before the one-table product,
// kept as its reference: a map of growing row slices per class, emitted in
// first-row order.
func intersectRef(p *Partition, probe []uint32) *Partition {
	out := &Partition{n: p.n, offsets: []int32{0}}
	groups := make(map[uint32][]int32)
	for c := 0; c < p.NumClasses(); c++ {
		cls := p.Class(c)
		if len(cls) < 2 {
			continue
		}
		clear(groups)
		var order []uint32
		for _, r := range cls {
			pv := probe[r]
			g, ok := groups[pv]
			if !ok {
				order = append(order, pv)
			}
			groups[pv] = append(g, r)
		}
		for _, pv := range order {
			if g := groups[pv]; len(g) >= 2 {
				out.elems = append(out.elems, g...)
				out.offsets = append(out.offsets, int32(len(out.elems)))
			}
		}
	}
	return out
}

// samePartition reports how got differs from want, "" when it does not.
func samePartition(got, want *Partition) string {
	if got.NumRows() != want.NumRows() || got.NumClasses() != want.NumClasses() || got.Size() != want.Size() {
		return fmt.Sprintf("rows/classes/size %d/%d/%d, want %d/%d/%d",
			got.NumRows(), got.NumClasses(), got.Size(), want.NumRows(), want.NumClasses(), want.Size())
	}
	for c := 0; c < want.NumClasses(); c++ {
		if g, w := fmt.Sprint(got.Class(c)), fmt.Sprint(want.Class(c)); g != w {
			return fmt.Sprintf("class %d = %s, want %s", c, g, w)
		}
	}
	return ""
}

// FuzzPartitionIntersect checks the one-table product against intersectRef
// on the partitions lattice search and detection build: PLI(A), then
// Intersect by B's probe, then by C's. The three columns hold up to 256 rows
// over an 8-value alphabet with INT 1 beside FLOAT 1.0, NULL and NaN, so the
// Equal-class probe is not the exact code vector; a tail of edits leaves dead
// codes, so probe codes range over the column's whole CodeSpace.
func FuzzPartitionIntersect(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1}, []byte{})
	f.Add([]byte{1, 2, 3, 2, 2, 3, 1, 2, 4, 6, 6, 6, 7, 7, 7}, []byte{0, 0, 5})
	f.Add([]byte{0, 3, 5, 0, 3, 5, 0, 4, 5, 1, 3, 5, 1, 3, 6, 2, 2, 2}, []byte{3, 1, 1, 4, 2, 7})
	alphabet := []types.Value{
		types.NewInt(1), types.NewFloat(1.0), types.Null, types.NewFloat(math.NaN()),
		types.NewString("a"), types.NewString("b"), types.NewInt(2), types.NewString("a\x1f"),
	}
	f.Fuzz(func(t *testing.T, cells, edits []byte) {
		const arity = 3
		n := min(len(cells)/arity, 256)
		tab := NewTable(schema.New("r", "A", "B", "C"))
		for i := range n {
			row := make(Tuple, arity)
			for j := range row {
				row[j] = alphabet[cells[i*arity+j]%8]
			}
			tab.MustInsert(row)
		}
		tab.Snapshot()
		for i := 0; i+2 < len(edits) && n > 0; i += 3 {
			if _, err := tab.SetCell(TupleID(int(edits[i])%n), int(edits[i+1])%arity, alphabet[edits[i+2]%8]); err != nil {
				t.Fatal(err)
			}
		}
		col := tab.Snapshot().Columnar()
		p := pli(col, 0)
		for j := 1; j < arity; j++ {
			probe := col.Col(j).EqProbe()
			got, want := p.Intersect(probe), intersectRef(p, probe)
			if diff := samePartition(got, want); diff != "" {
				t.Fatalf("step %d: %s", j, diff)
			}
			p = got
		}
	})
}

// eqClassesRef is EqClasses by its definition: rows keyed by their tuple
// of Equal-class codes on cols in a map, the classes in first-row order.
func eqClassesRef(c *Columnar, cols []int) (*Partition, map[string]int) {
	out, index := &Partition{n: c.Len(), offsets: []int32{0}}, map[string]int{}
	var order []string
	rows := map[string][]int32{}
	for r := range c.Len() {
		key := codeKey(c, cols, r)
		if _, ok := rows[key]; !ok {
			index[key] = len(order)
			order = append(order, key)
		}
		rows[key] = append(rows[key], int32(r))
	}
	for _, key := range order {
		out.elems = append(out.elems, rows[key]...)
		out.offsets = append(out.offsets, int32(len(out.elems)))
	}
	return out, index
}

func codeKey(c *Columnar, cols []int, r int) string {
	codes := make([]uint32, len(cols))
	for k, j := range cols {
		codes[k] = c.Col(j).EqCode(r)
	}
	return fmt.Sprint(codes)
}

// FuzzEqClasses checks the Equal-class builder on every column set of
// FuzzPartitionIntersect's tables (fresh columns, then columns patched to
// leave dead codes): its classes are eqClassesRef's, in first-row order;
// its multi-row classes are the PLI → Intersect product's; ClassOf files
// every row under its class; and Lookup finds each class by its code
// tuple and fails on every other tuple of codes up to each CodeSpace.
func FuzzEqClasses(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1}, []byte{})
	f.Add([]byte{1, 2, 3, 2, 2, 3, 1, 2, 4, 6, 6, 6, 7, 7, 7}, []byte{0, 0, 5})
	f.Add([]byte{0, 3, 5, 0, 3, 5, 0, 4, 5, 1, 3, 5, 1, 3, 6, 2, 2, 2}, []byte{3, 1, 1, 4, 2, 7})
	f.Add([]byte{}, []byte{})
	alphabet := []types.Value{
		types.NewInt(1), types.NewFloat(1.0), types.Null, types.NewFloat(math.NaN()),
		types.NewString("a"), types.NewString("b"), types.NewInt(2), types.NewString("a\x1f"),
	}
	f.Fuzz(func(t *testing.T, cells, edits []byte) {
		const arity = 3
		n := min(len(cells)/arity, 256)
		tab := NewTable(schema.New("r", "A", "B", "C"))
		for i := range n {
			row := make(Tuple, arity)
			for j := range row {
				row[j] = alphabet[cells[i*arity+j]%8]
			}
			tab.MustInsert(row)
		}
		check := func(stage string, c *Columnar) {
			for _, cols := range [][]int{{}, {0}, {1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
				got := c.EqClasses(cols)
				want, index := eqClassesRef(c, cols)
				if diff := samePartition(got.Partition, want); diff != "" {
					t.Fatalf("%s %v: %s", stage, cols, diff)
				}
				for r := range c.Len() {
					if cl := got.ClassOf(r); index[codeKey(c, cols, r)] != cl {
						t.Fatalf("%s %v: ClassOf(%d) = %d", stage, cols, r, cl)
					}
				}
				if len(cols) > 1 {
					p := pli(c, cols[0])
					for _, j := range cols[1:] {
						p = p.Intersect(c.Col(j).EqProbe())
					}
					multi := map[string]bool{}
					for cl := range got.NumClasses() {
						if len(got.Class(cl)) > 1 {
							multi[fmt.Sprint(got.Class(cl))] = true
						}
					}
					if prod := classSets(p); fmt.Sprint(prod) != fmt.Sprint(multi) {
						t.Fatalf("%s %v: multi-row classes %v, the product's %v", stage, cols, multi, prod)
					}
				}
				// Every tuple of codes up to one past each CodeSpace.
				codes := make([]uint32, len(cols))
				var walk func(k int)
				walk = func(k int) {
					if k < len(cols) {
						for q := range c.Col(cols[k]).CodeSpace() + 1 {
							codes[k] = uint32(q)
							walk(k + 1)
						}
						return
					}
					if len(cols) == 0 {
						return
					}
					cl, ok := got.Lookup(codes)
					want, has := index[fmt.Sprint(codes)]
					if ok != has || (ok && cl != want) {
						t.Fatalf("%s %v: Lookup(%v) = %d, %v; want %d, %v", stage, cols, codes, cl, ok, want, has)
					}
				}
				walk(0)
			}
		}
		check("fresh", tab.Snapshot().Columnar())
		for i := 0; i+2 < len(edits) && n > 0; i += 3 {
			if _, err := tab.SetCell(TupleID(int(edits[i])%n), int(edits[i+1])%arity, alphabet[edits[i+2]%8]); err != nil {
				t.Fatal(err)
			}
		}
		check("patched", tab.Snapshot().Columnar())
	})
}

// TestClassMemoBuildsEachSetOnce: a memo hands every caller of one column
// set the same classes, built once however many goroutines ask, and a
// second set its own.
func TestClassMemoBuildsEachSetOnce(t *testing.T) {
	tab := pliTable(t, []string{"A", "B", "C"}, [][]string{{"1", "x", "p"}, {"1.0", "x", "q"}, {"2", "y", "p"}})
	m := NewClassMemo(tab.Snapshot().Columnar())
	before := ReadBuildOps()
	got := make([]*EqClasses, 8)
	done := make(chan int)
	for i := range got {
		go func() {
			got[i] = m.Get([]int{0, 1})
			done <- i
		}()
	}
	for range got {
		<-done
	}
	for _, e := range got[1:] {
		if e != got[0] {
			t.Fatal("two builds of one column set")
		}
	}
	if other := m.Get([]int{0, 2}); other == got[0] || other.NumClasses() != 3 {
		t.Errorf("[A C] has %d classes, want its own 3", other.NumClasses())
	}
	if ops := ReadBuildOps().Sub(before); ops.ClassBuilds != 2 || ops.Intersects != 0 {
		t.Errorf("ClassBuilds = %d, Intersects = %d; want 2, 0", ops.ClassBuilds, ops.Intersects)
	}
	if got[0].NumClasses() != 2 || len(got[0].Class(0)) != 2 {
		t.Errorf("[A B]: %d classes, want INT 1 and FLOAT 1.0 in one of two", got[0].NumClasses())
	}
}

// TestEqProbeAliasesCodesWhenIdentity: a column whose every dictionary
// entry is its own Equal-class serves its exact codes as the probe vector
// (no second 4 B/row copy); a column where INT 1 and FLOAT 1.0 collapse
// must materialize the canonicalized vector. Either way probe[i] == EqCode(i).
func TestEqProbeAliasesCodesWhenIdentity(t *testing.T) {
	tab := NewTable(schema.New("t", "S", "N"))
	for i, n := range []types.Value{types.NewInt(1), types.NewFloat(1.0), types.NewInt(2), types.NewInt(1)} {
		tab.MustInsert(Tuple{types.NewString([]string{"a", "b", "a", "c"}[i]), n})
	}
	col := tab.Snapshot().Columnar()
	for j, wantAlias := range []bool{true, false} {
		c := col.Col(j)
		probe := c.EqProbe()
		if alias := &probe[0] == &c.codes[0]; alias != wantAlias {
			t.Errorf("column %d: probe aliases codes = %v, want %v", j, alias, wantAlias)
		}
		for i := range probe {
			if probe[i] != c.EqCode(i) {
				t.Errorf("column %d row %d: probe %d, EqCode %d", j, i, probe[i], c.EqCode(i))
			}
		}
	}
	// A patched successor carries the probe forward the same way.
	if _, err := tab.SetCell(3, 0, types.NewString("a")); err != nil {
		t.Fatal(err)
	}
	if err := DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Fatal(err)
	}
	if c := tab.Snapshot().Columnar().Col(0); &c.EqProbe()[0] != &c.codes[0] {
		t.Error("patched string column materialized a separate probe vector")
	}
}
