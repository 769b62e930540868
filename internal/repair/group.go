package repair

import (
	"slices"
	"strings"

	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// run is the state both repairers change a table with, writing through set.
type run struct {
	cost       CostModel
	c          cells
	group, lhs tally // the group being resolved; a membership being broken
	history    map[cellKey]cellHistory
	mods       []Modification
	set        func(id relstore.TupleID, pos int, attr string, v types.Value) error
}

// cellKey identifies a cell (tuple, attribute position).
type cellKey struct {
	id  relstore.TupleID
	pos int
}

// cellHistory detects oscillation between interacting CFDs (two groups
// tugging one RHS cell).
type cellHistory struct {
	values  []types.Value // every value the cell has held this run
	support int           // backing of the last change (agreeing members)
	group   *detect.FactorGroup
	changes int
}

func (h cellHistory) held(v types.Value) bool { return slices.ContainsFunc(h.values, v.Equal) }

// modify sets the cell at (row, pos) to v, backed by g's support agreeing
// members, unless it holds an Equal value; it reports whether it did.
func (r *run) modify(row, pos int, attr string, v types.Value, g *detect.FactorGroup, support int, cfdID, reason string, alts []Alternative) (bool, error) {
	id := r.c.cols.IDs()[row]
	old := r.c.value(pos, r.c.code(row, pos))
	if old.Equal(v) {
		return false, nil
	}
	if err := r.set(id, pos, attr, v); err != nil {
		return false, err
	}
	r.c.write(row, pos, v)
	h := r.history[cellKey{id, pos}]
	if h.values == nil {
		h.values = append(make([]types.Value, 0, 2), old)
	}
	h.values = append(h.values, v)
	h.group, h.support, h.changes = g, support, h.changes+1
	r.history[cellKey{id, pos}] = h
	r.mods = append(r.mods, Modification{TupleID: id, Attr: attr, Old: old, New: v,
		Cost: r.cost.Cost(id, attr, old, v), CFDID: cfdID, Reason: reason, Alternatives: alts})
	return true, nil
}

// cells is one pass's view of the table: the snapshot pinned when the pass
// began, with the cells the pass has written since laid over it. A cell
// reads as a code — a snapshot cell as its exact dictionary code, a written
// one as a code past its column's code space that indexes the pass's
// written values — so groups are tallied on codes and only the values a
// Modification carries are decoded.
type cells struct {
	cols  *relstore.Columnar
	wrote map[[2]int]uint32 // (row, pos) → the written value's code
	extra []written
	attrs map[string]int // attribute spelling → position, for every pass
}

// written is a value a pass wrote to column pos, with its Equal-class code
// there: the dictionary's class when a snapshot row holds an Equal value,
// else the code of the first value the pass wrote to the column in its class.
type written struct {
	v   types.Value
	pos int
	eq  uint32
}

// reset starts a pass over snap.
func (c *cells) reset(snap *relstore.Snapshot) {
	c.cols, c.extra = snap.Columnar(), c.extra[:0]
	if c.wrote == nil {
		c.wrote, c.attrs = map[[2]int]uint32{}, map[string]int{}
	}
	clear(c.wrote)
}

// pos returns a validated attribute's position.
func (c *cells) pos(attr string) int {
	p, ok := c.attrs[attr]
	if !ok {
		p = c.cols.Schema().MustPos(attr)
		c.attrs[attr] = p
	}
	return p
}

func (c *cells) code(row, pos int) uint32 {
	if code, ok := c.wrote[[2]int{row, pos}]; ok {
		return code
	}
	return c.cols.Col(pos).Code(row)
}

// extraAt returns the written value a code of column pos names, if any.
func (c *cells) extraAt(pos int, code uint32) (*written, bool) {
	if n := uint32(c.cols.Col(pos).CodeSpace()); code >= n {
		return &c.extra[code-n], true
	}
	return nil, false
}

func (c *cells) value(pos int, code uint32) types.Value {
	if w, ok := c.extraAt(pos, code); ok {
		return w.v
	}
	return c.cols.Col(pos).Value(code)
}

func (c *cells) eq(pos int, code uint32) uint32 {
	if w, ok := c.extraAt(pos, code); ok {
		return w.eq
	}
	return c.cols.Col(pos).EqOf(code)
}

func (c *cells) key(pos int, code uint32) string {
	if w, ok := c.extraAt(pos, code); ok {
		return w.v.Key()
	}
	return c.cols.Col(pos).KeyOf(code)
}

// write records v as cell (row, pos)'s value for the rest of the pass.
func (c *cells) write(row, pos int, v types.Value) {
	col := c.cols.Col(pos)
	code := uint32(col.CodeSpace() + len(c.extra))
	eq, ok := col.EqCodeOf(v)
	for i := 0; !ok && i < len(c.extra); i++ {
		if w := c.extra[i]; w.pos == pos && w.v.Equal(v) {
			eq, ok = w.eq, true
		}
	}
	if !ok {
		eq = code
	}
	c.extra = append(c.extra, written{v: v, pos: pos, eq: eq})
	c.wrote[[2]int{row, pos}] = code
}

// tally is the one group core both repairers share: a group's members (rows)
// counted by the Equal class of one attribute over a pass's cells — for the
// batch merge, the incremental repairer's majority and cheapest merge, and
// the majority that breaks a membership. Classes keep first-member order and
// the exact code of their first and last member.
type tally struct {
	pos     int
	codes   []uint32 // per member, its exact code
	classes []class
	index   map[uint32]int // Equal-class code → classes index
	// rank's scratch: per member its weight and slot (distinct value)
	w     []float64
	slot  []int
	slots map[uint32]int
	exact []types.Value
	dist  []float64
	cands []cand
}

type class struct {
	first, last uint32
	n           int
}

// cand is one merge target: a class's first member's exact code, its member
// count, and what moving every member to it costs.
type cand struct {
	code  uint32
	n     int
	total float64
}

// count tallies the members at rows other than skip by their cell at pos.
func (t *tally) count(c *cells, pos int, rows []int32, skip int) {
	if t.index == nil {
		t.index, t.slots = map[uint32]int{}, map[uint32]int{}
	}
	clear(t.index)
	t.pos, t.codes, t.classes = pos, t.codes[:0], t.classes[:0]
	for _, r := range rows {
		if int(r) == skip {
			continue
		}
		code := c.code(int(r), pos)
		t.codes = append(t.codes, code)
		k, ok := t.index[c.eq(pos, code)]
		if !ok {
			k = len(t.classes)
			t.index[c.eq(pos, code)] = k
			t.classes = append(t.classes, class{first: code})
		}
		t.classes[k].n++
		t.classes[k].last = code
	}
}

// majority returns the exact code of the last member of the largest class,
// ties going to the smaller value key; false when nothing was counted.
func (t *tally) majority(c *cells) (uint32, bool) {
	if len(t.classes) == 0 {
		return 0, false
	}
	best := 0
	for k := 1; k < len(t.classes); k++ {
		cl, b := t.classes[k], t.classes[best]
		if cl.n > b.n || cl.n == b.n && c.key(t.pos, cl.first) < c.key(t.pos, b.first) {
			best = k
		}
	}
	return t.classes[best].last, true
}

// rank prices every class as the value all the counted members (rows, as
// count saw them with no skip) move to — each distinct member value's
// distance computed once per class, weighted per member and summed in member
// order — and orders the classes by (total, value key).
func (t *tally) rank(c *cells, m CostModel, ids []relstore.TupleID, rows []int32, attr string) []cand {
	clear(t.slots)
	t.w, t.slot, t.exact = t.w[:0], t.slot[:0], t.exact[:0]
	for i, r := range rows {
		t.w = append(t.w, m.weight(ids[r], attr))
		s, ok := t.slots[t.codes[i]]
		if !ok {
			s = len(t.exact)
			t.slots[t.codes[i]] = s
			t.exact = append(t.exact, c.value(t.pos, t.codes[i]))
		}
		t.slot = append(t.slot, s)
	}
	t.cands = t.cands[:0]
	for _, cl := range t.classes {
		to := c.value(t.pos, cl.first)
		t.dist = t.dist[:0]
		for _, v := range t.exact {
			t.dist = append(t.dist, m.distance(v, to))
		}
		total := 0.0
		for i, w := range t.w {
			total += float64(w * t.dist[t.slot[i]]) // rounded as Cost's result is
		}
		t.cands = append(t.cands, cand{code: cl.first, n: cl.n, total: total})
	}
	slices.SortStableFunc(t.cands, func(a, b cand) int {
		if a.total != b.total {
			return byCost(a.total, b.total)
		}
		return strings.Compare(c.key(t.pos, a.code), c.key(t.pos, b.code))
	})
	return t.cands
}

// byCost orders costs as a stable sort on a < b does.
func byCost(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// breakOption is a LHS-cell repair that moves a tuple out of a group.
type breakOption struct {
	attr string
	pos  int
	val  types.Value
	cost float64
}

// planBreak finds the cheapest LHS attribute of the losing constraint whose
// repair moves the tuple at row out of the losing group: the new value is the
// majority value of that attribute among the winner group's other members
// (the tuples the winner says this tuple belongs with). It reports false when
// no LHS attribute can be repaired this way. The groups may come from earlier
// passes: a repair only sets cells, so row positions hold across passes.
func (r *run) planBreak(row int, losing, winner *detect.FactorGroup) (best breakOption, found bool) {
	if losing == nil || winner == nil {
		return best, false
	}
	for _, attr := range losing.LHSAttrs {
		pos, ok := r.c.cols.Schema().Pos(attr)
		if !ok {
			continue
		}
		r.lhs.count(&r.c, pos, winner.Rows, row)
		rep, ok := r.lhs.majority(&r.c)
		cur := r.c.code(row, pos)
		if !ok || r.c.eq(pos, rep) == r.c.eq(pos, cur) {
			continue // no other member, or it would not break the membership
		}
		val := r.c.value(pos, rep)
		if cost := r.cost.Cost(r.c.cols.IDs()[row], attr, r.c.value(pos, cur), val); !found || cost < best.cost {
			best, found = breakOption{attr: attr, pos: pos, val: val, cost: cost}, true
		}
	}
	return best, found
}

// arbitrate settles an oscillation: the cell at row holds cur, its last
// change backed by prev, it held orig before this run, and g would move it
// back to v. It prices the two consistent outcomes from orig — reverting to
// the original is free, the minimal-change principle of the cost-based
// repair model — each with the membership break it needs: keep cur and move
// the tuple out of g (a LHS cell of g's CFD), or adopt v and move it out of
// prev. It reports whether v wins, and the winner's break (ok false: none).
func (r *run) arbitrate(row int, attr string, orig, cur, v types.Value, prev, g *detect.FactorGroup) (adopt bool, brk breakOption, ok bool) {
	price := func(to types.Value, b breakOption, ok bool) float64 {
		cost := r.cost.Cost(r.c.cols.IDs()[row], attr, orig, to)
		if !ok {
			return cost + 1e9 // unbreakable
		}
		return cost + b.cost
	}
	keep, okKeep := r.planBreak(row, g, prev)
	move, okMove := r.planBreak(row, prev, g)
	if price(cur, keep, okKeep) <= price(v, move, okMove) {
		return false, keep, okKeep
	}
	return true, move, okMove
}
