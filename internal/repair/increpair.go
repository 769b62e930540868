package repair

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// IncRepairer implements the incremental repair of the VLDB 2007 paper
// (IncRepair): given a table that is already clean and a batch of fresh
// tuples ΔI, it restores consistency by modifying only the tuples of ΔI —
// the cleaned data is trusted and stays untouched. Semandaq's data monitor
// invokes it when updates arrive after cleansing.
//
// With many interacting CFDs (e.g. a discovered set), per-rule local fixes
// can tug a tuple in circles. IncRepair therefore resolves each tuple by
// EVIDENCE VOTING: every violated constant pattern and every violating
// group with a trusted majority proposes a (cell := value) fix, equal
// proposals accumulate votes, and the best-corroborated fix is applied —
// one per tuple per pass. A proposal that would revert an earlier change is
// handled by the same cost-from-original arbitration as BatchRepair,
// repairing a LHS cell to break the losing group membership instead.
type IncRepairer struct {
	Cost CostModel
	// MaxPasses caps the per-delta fixpoint. Default 15.
	MaxPasses int
}

// NewIncRepairer builds an incremental repairer with defaults.
func NewIncRepairer() *IncRepairer {
	return &IncRepairer{Cost: DefaultCostModel(), MaxPasses: 15}
}

// proposal is one candidate fix for the delta tuple at row.
type proposal struct {
	row, pos int
	attr     string
	val      types.Value
	votes    int
	cost     float64
	group    *detect.FactorGroup // strongest group backing it (nil: constants only)
	cfdID    string
}

// RepairDelta repairs the tuples in delta against the CFDs, in place,
// using the tracker's violation index (the tracker must wrap tab). Only
// delta tuples are modified. It returns the modifications applied.
func (ir *IncRepairer) RepairDelta(tr *detect.Tracker, tab *relstore.Table, cfds []*cfd.CFD, delta []relstore.TupleID) ([]Modification, error) {
	maxPasses := ir.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 15
	}
	inDelta := make(map[relstore.TupleID]bool, len(delta))
	for _, id := range delta {
		inDelta[id] = true
	}
	r := &run{cost: ir.Cost, history: map[cellKey]cellHistory{}, set: func(id relstore.TupleID, _ int, attr string, v types.Value) error {
		return tr.SetCell(id, attr, v)
	}}
	c := &r.c
	var deltaRows, fixedRows []int32
	for pass := 0; pass < maxPasses; pass++ {
		snap := tab.Snapshot()
		rep, ok := tr.FactorReport(snap)
		if !ok {
			return nil, fmt.Errorf("repair: the tracker does not describe %s at version %d", tab.Schema().Name, snap.Version())
		}
		c.reset(snap)
		ids := snap.IDs()
		start := len(r.mods)

		// Gather proposals per delta tuple.
		props := map[relstore.TupleID][]proposal{}
		add := func(row int, attr string, val types.Value, g *detect.FactorGroup, cfdID string) {
			pos := c.pos(attr)
			cur := c.value(pos, c.code(row, pos))
			if cur.Equal(val) {
				return
			}
			id := ids[row]
			list := props[id]
			k := slices.IndexFunc(list, func(p proposal) bool { return p.pos == pos && p.val.Equal(val) })
			if k < 0 {
				k = len(list)
				list = append(list, proposal{row: row, pos: pos, attr: attr, val: val,
					cost: ir.Cost.Cost(id, attr, cur, val), cfdID: cfdID})
				props[id] = list
			}
			p := &list[k]
			p.votes++
			if g != nil && (p.group == nil || g.Size() > p.group.Size()) {
				p.group = g
			}
		}

		// Constant-pattern violations vote for the pattern constant.
		for _, v := range rep.Violations {
			if inDelta[v.TupleID] {
				row, _ := slices.BinarySearch(ids, v.TupleID)
				add(row, v.Attr, v.Expected, nil, v.CFDID)
			}
		}
		// Violating groups vote: fixed-majority value for delta members,
		// or the cheapest merge value for all-delta groups.
		for _, g := range rep.FactorGroups {
			deltaRows, fixedRows = deltaRows[:0], fixedRows[:0]
			for _, row := range g.Rows {
				if inDelta[ids[row]] {
					deltaRows = append(deltaRows, row)
				} else {
					fixedRows = append(fixedRows, row)
				}
			}
			if len(deltaRows) == 0 {
				continue // pre-existing conflict among trusted tuples
			}
			pos := c.pos(g.Attr)
			var target uint32
			if t := &r.group; len(fixedRows) > 0 {
				t.count(c, pos, fixedRows, -1)
				target, _ = t.majority(c)
			} else {
				t.count(c, pos, deltaRows, -1)
				target = t.rank(c, ir.Cost, ids, deltaRows, g.Attr)[0].code
			}
			for _, row := range deltaRows {
				add(int(row), g.Attr, c.value(pos, target), g, g.CFDID)
			}
		}

		// Apply the best-corroborated proposal per tuple.
		for _, id := range slices.Sorted(maps.Keys(props)) {
			list := props[id]
			slices.SortStableFunc(list, func(a, b proposal) int {
				switch {
				case a.votes != b.votes:
					return cmp.Compare(b.votes, a.votes)
				case a.cost != b.cost:
					return byCost(a.cost, b.cost)
				case !a.val.Equal(b.val):
					return strings.Compare(a.val.Key(), b.val.Key())
				}
				return strings.Compare(a.attr, b.attr)
			})
			k := slices.IndexFunc(list, func(p proposal) bool { return !r.history[cellKey{id, p.pos}].held(p.val) })
			if k >= 0 {
				p, reason := list[k], "inc: constant pattern"
				if p.group != nil {
					reason = "inc: align with clean data"
				}
				if _, err := r.modify(p.row, p.pos, p.attr, p.val, p.group, 0, p.cfdID, reason, nil); err != nil {
					return nil, err
				}
				continue
			}
			// Every proposal reverts an earlier change: oscillation. The
			// top proposal is arbitrated against the cell's current state,
			// as BatchRepair does.
			p := list[0]
			h := r.history[cellKey{id, p.pos}]
			adopt, brk, ok := r.arbitrate(p.row, p.attr, h.values[0], c.value(p.pos, c.code(p.row, p.pos)), p.val, h.group, p.group)
			g := h.group
			if adopt {
				if _, err := r.modify(p.row, p.pos, p.attr, p.val, p.group, 0, p.cfdID, "inc: arbitrated merge", nil); err != nil {
					return nil, err
				}
				g = p.group
			}
			if ok && !r.history[cellKey{id, brk.pos}].held(brk.val) {
				if _, err := r.modify(p.row, brk.pos, brk.attr, brk.val, g, 0, p.cfdID,
					"inc: break membership via "+brk.attr, nil); err != nil {
					return nil, err
				}
			}
		}

		if len(r.mods) == start {
			break
		}
	}
	return r.mods, nil
}
