// The snapshot oracle: DiffSnapshots force-builds every artifact two
// snapshots can materialize — decoded rows, columnar dictionaries, code
// vectors, occurrence counts, lookups, one-column partitions, probe
// vectors, key tables, class orders — and compares them. Rows, ids,
// partitions and class orders must match exactly; dictionary codes are
// opaque (columnar.go), so everything indexed by code is compared under
// the renaming the two code vectors induce row by row. The columns are the
// only copy of the data, so the ground truth lives with the caller: the
// fuzz targets and cross-check harnesses keep a naive (ids, rows) model of
// every op they apply and run DiffSnapshots between the served snapshot and
// BuildSnapshot of that model at every intermediate version; any divergence
// is a fold bug, reported with enough coordinates to reproduce.
//
// reflect.DeepEqual over whole Snapshots would be both too strict (codes,
// sync.Once and atomic scheduling state differ between a warm and a cold
// build) and too vague (a mismatch names no field), hence the explicit
// walk. Slices compare as sequences: nil and empty are the same artifact.
package relstore

import (
	"fmt"
	"math"
	"slices"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// BuildSnapshot batch-builds the snapshot holding rows under ids (strictly
// ascending, parallel to rows) at version: every column interned from
// scratch, heading a lineage of its own. It is the cold side of the snapshot
// oracle, through which the tests' row models go; serving paths fold.
func BuildSnapshot(sc *schema.Relation, version int64, ids []TupleID, rows []Tuple) *Snapshot {
	c := Columnar{schema: sc, version: version, ids: slices.Clone(ids), cols: make([]*Column, sc.Arity())}
	for j := range c.cols {
		c.cols[j] = buildColumn(len(rows), func(i int) types.Value { return rows[i][j] })
	}
	buildOps.internedCells.Add(int64(len(rows) * len(c.cols)))
	buildOps.batchColumns.Add(int64(len(c.cols)))
	buildOps.batchSnapshots.Add(1)
	return &Snapshot{c: c}
}

// RebuildSnapshot batch-builds a fresh copy of the current version's
// snapshot (BuildSnapshot of its decoded rows): the same data on columns of
// a lineage of their own. It re-interns what the fold wrote, so it checks
// the fold's artifacts but not its values; only a row model can.
func (t *Table) RebuildSnapshot() *Snapshot {
	s := t.Snapshot()
	return BuildSnapshot(s.Schema(), s.Version(), s.IDs(), s.Rows())
}

// DiffSnapshots compares every observable artifact of got against want and
// returns a precise error for the first divergence, nil if the snapshots
// are indistinguishable. Both sides are force-built, so lazy caches are
// exercised too. want is conventionally the cold rebuild.
func DiffSnapshots(got, want *Snapshot) error {
	if got.Version() != want.Version() {
		return fmt.Errorf("version: got %d, want %d", got.Version(), want.Version())
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("len: got %d, want %d", got.Len(), want.Len())
	}
	if err := checkShape(got); err != nil {
		return fmt.Errorf("got: %w", err)
	}
	if err := checkShape(want); err != nil {
		return fmt.Errorf("want: %w", err)
	}
	gc, wc := got.Columnar(), want.Columnar()
	if gc.NumCols() != wc.NumCols() {
		return fmt.Errorf("columnar arity: got %d, want %d", gc.NumCols(), wc.NumCols())
	}
	for i, id := range want.c.ids {
		if got.c.ids[i] != id {
			return fmt.Errorf("ids[%d]: got %d, want %d", i, got.c.ids[i], id)
		}
		for j, wcol := range wc.cols {
			if g, w := gc.cols[j].cell(i), wcol.cell(i); g != w {
				return fmt.Errorf("row %d (id %d) cell %d: got %v, want %v (exact)", i, id, j, g, w)
			}
		}
	}
	for j := 0; j < wc.NumCols(); j++ {
		if err := diffColumn(gc, wc, j); err != nil {
			return fmt.Errorf("column %d (%s): %w", j, want.Schema().Attrs[j].Name, err)
		}
	}
	return nil
}

// checkShape verifies what Get and the row decoders rely on: ids strictly
// ascending and every column as long as the ids.
func checkShape(s *Snapshot) error {
	for i := 1; i < s.Len(); i++ {
		if s.c.ids[i-1] >= s.c.ids[i] {
			return fmt.Errorf("ids[%d] = %d after ids[%d] = %d: not strictly ascending", i, s.c.ids[i], i-1, s.c.ids[i-1])
		}
	}
	for j, col := range s.c.cols {
		if col.Len() != s.Len() {
			return fmt.Errorf("column %d holds %d rows, ids %d", j, col.Len(), s.Len())
		}
	}
	return nil
}

// exactCode is find restricted to what this column stores: ok is false for
// a value no row carries — never interned, interned by a successor, or dead.
func (c *Column) exactCode(v types.Value) (uint32, bool) {
	c.in.mu.RLock()
	code, ok := c.find(v)
	c.in.mu.RUnlock()
	if !ok || int(code) >= len(c.dict) || c.counts[code] == 0 {
		return 0, false
	}
	return code, true
}

// renaming is a partial bijection between two code spaces, grown pair by
// pair.
type renaming struct{ fwd, back map[uint32]uint32 }

// pair records got <-> want, failing if either is already paired elsewhere.
func (r renaming) pair(got, want uint32) bool {
	if w, ok := r.fwd[got]; ok {
		return w == want
	}
	if _, ok := r.back[want]; ok {
		return false
	}
	r.fwd[got], r.back[want] = want, got
	return true
}

// checkColumn verifies what one column must satisfy on its own: the counts
// are those of its code vector, dead codes are within the compaction
// bound, and its partition's class index and the probe vector agree with
// eq.
func checkColumn(c *Column, p *EqClasses) error {
	counts, cls, live := make([]int32, len(c.dict)), make([]int32, len(c.dict)), 0
	for _, code := range c.codes {
		if counts[code]++; counts[code] == 1 {
			live++
		}
		cls[c.eq[code]]++
	}
	if err := diffSeq("counts", c.counts, counts); err != nil {
		return err
	}
	if err := diffSeq("clsCounts", c.clsCounts, cls); err != nil {
		return err
	}
	if c.live != live {
		return fmt.Errorf("live = %d, rows carry %d codes", c.live, live)
	}
	if dead := len(c.dict) - live; dead > deadLimit(live) {
		return fmt.Errorf("%d dead codes beside %d live: past the compaction threshold", dead, live)
	}
	filed := 0
	for canon, cl := range p.slots {
		if cl < 0 {
			continue
		}
		filed++
		if got := c.eq[c.codes[p.Class(int(cl))[0]]]; got != uint32(canon) {
			return fmt.Errorf("slots[%d] = %d, whose rows are of class %d", canon, cl, got)
		}
	}
	if filed != p.NumClasses() {
		return fmt.Errorf("slots file %d classes, the partition has %d", filed, p.NumClasses())
	}
	for i, pv := range c.EqProbe() {
		if pv != c.eq[c.codes[i]] {
			return fmt.Errorf("probe[%d] = %d, want %d", i, pv, c.eq[c.codes[i]])
		}
	}
	return nil
}

// diffColumn compares column j of got with column j of want.
func diffColumn(got, want *Columnar, j int) error {
	g, w := got.Col(j), want.Col(j)
	if len(g.codes) != len(w.codes) {
		return fmt.Errorf("codes len: got %d, want %d", len(g.codes), len(w.codes))
	}
	gp, wp := got.EqClasses([]int{j}), want.EqClasses([]int{j})
	if err := checkColumn(g, gp); err != nil {
		return fmt.Errorf("got: %w", err)
	}
	if err := checkColumn(w, wp); err != nil {
		return fmt.Errorf("want: %w", err)
	}
	// The row-wise walk induces the renaming of exact codes and, through
	// eq, of Equal-class codes: the same rows must carry the same value and
	// fall in the same class on both sides.
	exact := renaming{map[uint32]uint32{}, map[uint32]uint32{}}
	class := renaming{map[uint32]uint32{}, map[uint32]uint32{}}
	for i, wc := range w.codes {
		gc := g.codes[i]
		if !exact.pair(gc, wc) {
			return fmt.Errorf("codes[%d]: got %d, want %d: not a renaming", i, gc, wc)
		}
		if !class.pair(g.eq[gc], w.eq[wc]) {
			return fmt.Errorf("eq at row %d: got class %d, want %d: partitions differ", i, g.eq[gc], w.eq[wc])
		}
	}
	g.EnsureKeys()
	w.EnsureKeys()
	for gc, wc := range exact.fwd {
		if g.dict[gc] != w.dict[wc] {
			return fmt.Errorf("dict[%d~%d]: got %v, want %v (exact)", gc, wc, g.dict[gc], w.dict[wc])
		}
		if g.keys[gc] != w.keys[wc] {
			return fmt.Errorf("keys[%d~%d]: got %q, want %q", gc, wc, g.keys[gc], w.keys[wc])
		}
	}
	// Lookups agree on every value either side has ever held — live, dead
	// or revived — and on three no test domain stores.
	probes := append(append([]types.Value{types.NewString("\x00absent"), types.NewInt(math.MinInt64 + 7),
		types.NewFloat(-1.25e-300)}, g.dict...), w.dict...)
	for _, v := range probes {
		gc, gok := g.exactCode(v)
		wc, wok := w.exactCode(v)
		if gok != wok || (gok && exact.fwd[gc] != wc) {
			return fmt.Errorf("exactCode(%v): got %d/%v, want %d/%v", v, gc, gok, wc, wok)
		}
		gq, gok := g.EqCodeOf(v)
		wq, wok := w.EqCodeOf(v)
		if gok != wok || (gok && class.fwd[gq] != wq) {
			return fmt.Errorf("EqCodeOf(%v): got %d/%v, want %d/%v", v, gq, gok, wq, wok)
		}
	}
	if _, gok := g.NullCode(); gok != (w.nullCode >= 0 && w.counts[w.nullCode] > 0) {
		return fmt.Errorf("NullCode: got %v", gok)
	}
	// Partitions list classes by first row and rows ascending, so they
	// match exactly, codes or no codes; so do the class representatives,
	// the values of the classes' first rows.
	if gp.NumRows() != wp.NumRows() {
		return fmt.Errorf("partition rows: got %d, want %d", gp.NumRows(), wp.NumRows())
	}
	if err := diffSeq("partition elems", gp.elems, wp.elems); err != nil {
		return err
	}
	if err := diffSeq("partition offsets", gp.offsets, wp.offsets); err != nil {
		return err
	}
	for cl := 0; cl < wp.NumClasses(); cl++ {
		if gv, wv := g.cell(int(gp.Class(cl)[0])), w.cell(int(wp.Class(cl)[0])); gv != wv {
			return fmt.Errorf("class %d's representative: got %v, want %v (exact)", cl, gv, wv)
		}
	}
	return nil
}

func diffSeq[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s len: got %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d]: got %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}
