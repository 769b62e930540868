package repair

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// Repairer runs the batch repair algorithm.
type Repairer struct {
	Cost CostModel
	// MaxPasses caps the detect-resolve fixpoint; BatchRepair converges in
	// a handful of passes on satisfiable CFD sets. Default 20.
	MaxPasses int
	// MaxCellChanges freezes a cell after this many modifications in one
	// run, guaranteeing termination of pathological interactions.
	// Default 4.
	MaxCellChanges int
}

// NewRepairer builds a repairer with defaults.
func NewRepairer() *Repairer {
	return &Repairer{
		Cost:           DefaultCostModel(),
		MaxPasses:      20,
		MaxCellChanges: 4,
	}
}

// Result is the outcome of a repair run.
type Result struct {
	// Repaired is an independent repaired copy; the input table is never
	// modified (the user reviews the candidate repair before applying it,
	// per the paper's data-cleansing review).
	Repaired *relstore.Table
	// Modifications lists every cell change, in application order.
	Modifications []Modification
	// Cost is the total cost of the modifications.
	Cost float64
	// Passes is the number of detect-resolve rounds executed.
	Passes int
	// Converged is true when the repaired table has zero violations.
	Converged bool
	// Remaining counts violations left when not converged.
	Remaining int
}

// ModifiedCells returns the set of changed cells as "tupleID/attr" keys.
// Cells that ended up back at their original value are excluded.
func (r *Result) ModifiedCells() map[string]bool {
	first := map[string]types.Value{}
	last := map[string]types.Value{}
	for _, m := range r.Modifications {
		k := fmt.Sprintf("%d/%s", m.TupleID, m.Attr)
		if _, ok := first[k]; !ok {
			first[k] = m.Old
		}
		last[k] = m.New
	}
	out := make(map[string]bool, len(last))
	for k, v := range last {
		if !v.Equal(first[k]) {
			out[k] = true
		}
	}
	return out
}

// Repair computes a candidate repair of tab under the CFDs. It follows the
// BatchRepair shape of the VLDB 2007 paper:
//
//  1. detect violations;
//  2. resolve single-tuple (constant-pattern) violations by setting the RHS
//     cell to the pattern constant;
//  3. resolve each multi-tuple group by moving the minority members to the
//     value minimizing the weighted change cost (candidates are the values
//     present in the group — no invented values);
//  4. when two constraints tug one cell back and forth across passes (e.g.
//     two FDs sharing an RHS attribute), arbitrate by majority support and
//     repair a LHS attribute of the losing constraint instead, moving the
//     tuple out of the losing group — the value-modification alternative of
//     Bohannon et al.;
//  5. repeat until clean, or MaxPasses / per-cell change caps hit.
func (r *Repairer) Repair(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Result, error) {
	return r.RepairFrom(ctx, tab, cfds, nil)
}

// RepairFrom is Repair given seed, a factorised report of tab under cfds (the
// facade's cached one): the first pass reads it instead of detecting when it
// describes the version the working copy is cloned at. A nil seed is Repair.
func (r *Repairer) RepairFrom(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD, seed *detect.FactorReport) (*Result, error) {
	work := tab.Clone()
	for _, c := range cfds {
		if err := c.Validate(work.Schema()); err != nil {
			return nil, err
		}
	}
	b := &batch{ctx: ctx, cfds: cfds, work: work, maxChanges: r.MaxCellChanges, merges: map[string]string{}}
	b.run = run{cost: r.Cost, history: map[cellKey]cellHistory{}, set: func(id relstore.TupleID, pos int, _ string, v types.Value) error {
		_, err := work.SetCell(id, pos, v)
		return err
	}}
	if b.maxChanges <= 0 {
		b.maxChanges = 4
	}
	maxPasses := r.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 20
	}
	res := &Result{Repaired: work}
	done := func(remaining int) (*Result, error) {
		res.Modifications, res.Remaining, res.Converged = b.mods, remaining, remaining == 0
		for _, m := range b.mods {
			res.Cost += m.Cost
		}
		return res, nil
	}
	for pass := 0; pass < maxPasses; pass++ {
		fr, remaining, err := b.detect(seed)
		if err != nil {
			return nil, err
		}
		if res.Passes, seed = pass+1, nil; remaining == 0 {
			return done(0)
		}
		// Step 2, then step 3 with oscillation arbitration.
		changed, err := b.fixConstants(fr.Violations)
		for i := 0; err == nil && i < len(fr.FactorGroups); i++ {
			var did bool
			did, err = b.resolveGroup(fr.FactorGroups[i])
			changed = changed || did
		}
		if err != nil {
			return nil, err
		}
		if !changed {
			return done(remaining)
		}
	}
	_, remaining, err := b.detect(nil)
	if err != nil {
		return nil, err
	}
	return done(remaining)
}

// batch is one Repair run's state.
type batch struct {
	run
	ctx        context.Context
	cfds       []*cfd.CFD
	work       *relstore.Table
	maxChanges int
	merges     map[string]string // RHS attribute → its merge Reason
	targets    []types.Value
}

// detect pins the working table for a pass and returns its report (fr when
// of the pinned version) and the count of violation records it explodes to.
func (b *batch) detect(fr *detect.FactorReport) (*detect.FactorReport, int, error) {
	snap := b.work.Snapshot()
	if fr == nil || fr.Version != snap.Version() {
		var err error
		if fr, err = detect.DetectFactorised(b.ctx, snap, b.cfds); err != nil {
			return nil, 0, err
		}
	}
	b.c.reset(snap)
	remaining := len(fr.Violations)
	for _, g := range fr.FactorGroups {
		remaining += g.Size()
	}
	return fr, remaining, nil
}

// change is modify unless the cell is frozen: changed maxChanges times.
func (b *batch) change(row, pos int, attr string, v types.Value, g *detect.FactorGroup, support int, cfdID, reason string, alts []Alternative) (bool, error) {
	if b.history[cellKey{b.c.cols.IDs()[row], pos}].changes >= b.maxChanges {
		return false, nil
	}
	return b.modify(row, pos, attr, v, g, support, cfdID, reason, alts)
}

// fixConstants applies the constant-pattern fixes (a factorised report's
// Violations are the single-tuple ones only), ONE per tuple per pass — two
// mutually-triggered constant patterns (e.g. CITY→AC and AC→CITY) would
// otherwise flip both cells in tandem forever; fixing the cheapest cell
// first removes the other rule's premise. The violations are sorted by
// tuple, so each tuple's are adjacent.
func (b *batch) fixConstants(vs []detect.Violation) (bool, error) {
	changed := false
	for i, j := 0, 0; i < len(vs); i = j {
		if err := b.ctx.Err(); err != nil {
			return false, err
		}
		for j = i + 1; j < len(vs) && vs[j].TupleID == vs[i].TupleID; j++ {
		}
		tuple := vs[i:j]
		row, _ := slices.BinarySearch(b.c.cols.IDs(), tuple[0].TupleID)
		// Cheapest fix across this tuple's violated cells. A cell that
		// different rules want to set to DIFFERENT constants is contested
		// evidence (e.g. [CITY=x]→CNT=UK vs [CC=1]→CNT=US); prefer an
		// uncontested cell — fixing it usually removes the contested rules'
		// premises.
		var fix struct {
			v         detect.Violation
			pos       int
			best      Alternative
			alts      []Alternative
			contested bool
		}
		for k, v := range tuple {
			pos := b.c.pos(v.Attr)
			if slices.ContainsFunc(tuple[:k], func(u detect.Violation) bool { return b.c.pos(u.Attr) == pos }) {
				continue // the cell's first violation priced it
			}
			b.targets = b.targets[:0]
			for _, u := range tuple[k:] {
				if b.c.pos(u.Attr) == pos && !slices.ContainsFunc(b.targets, u.Expected.Equal) {
					b.targets = append(b.targets, u.Expected)
				}
			}
			best, alts := pickCheapest(b.cost, v.TupleID, v.Attr, b.c.value(pos, b.c.code(row, pos)), b.targets)
			if contested := len(b.targets) > 1; k == 0 || contested != fix.contested && !contested ||
				contested == fix.contested && best.Cost < fix.best.Cost {
				fix.v, fix.pos, fix.best, fix.alts, fix.contested = v, pos, best, alts, contested
			}
		}
		did, err := b.change(row, fix.pos, fix.v.Attr, fix.best.Value, nil, 1<<30, fix.v.CFDID,
			"constant pattern "+fix.best.Value.String(), fix.alts)
		if err != nil {
			return false, err
		}
		changed = changed || did
	}
	return changed, nil
}

// resolveGroup merges one violating group to its cost-optimal value,
// arbitrating oscillations via majority support and LHS breaking.
func (b *batch) resolveGroup(g *detect.FactorGroup) (bool, error) {
	if err := b.ctx.Err(); err != nil {
		return false, err
	}
	pos, ids, t := b.c.pos(g.Attr), b.c.cols.IDs(), &b.group
	t.count(&b.c, pos, g.Rows, -1)
	if len(t.classes) <= 1 {
		return false, nil // already resolved by an earlier fix this pass
	}
	cands := t.rank(&b.c, b.cost, ids, g.Rows, g.Attr)
	target, support := b.c.value(pos, cands[0].code), cands[0].n
	merge, ok := b.merges[g.Attr]
	if !ok {
		merge = "merge group on " + g.Attr
		b.merges[g.Attr] = merge
	}
	anyChange := false
	for i, r := range g.Rows {
		if b.c.eq(pos, t.codes[i]) == b.c.eq(pos, cands[0].code) {
			continue
		}
		id, row, old := ids[r], int(r), b.c.value(pos, t.codes[i])
		alts := make([]Alternative, 0, len(cands)-1)
		for _, c := range cands[1:] {
			v := b.c.value(pos, c.code)
			alts = append(alts, Alternative{Value: v, Cost: b.cost.Cost(id, g.Attr, old, v)})
		}
		var did, did2 bool
		var err error
		if h := b.history[cellKey{id, pos}]; !h.held(target) {
			slices.SortStableFunc(alts, func(a, b Alternative) int { return byCost(a.Cost, b.Cost) })
			did, err = b.change(row, pos, g.Attr, target, g, support, g.CFDID, merge, alts)
		} else if adopt, brk, ok := b.arbitrate(row, g.Attr, h.values[0], old, target, h.group, g); !adopt && ok {
			// Oscillation, another constraint having moved this cell away
			// from target before, and its change stands: move the tuple out
			// of this group instead.
			did, err = b.change(row, brk.pos, brk.attr, brk.val, h.group, h.support,
				g.CFDID, "break membership via "+brk.attr, nil)
		} else if adopt {
			// This group wins: merge, and move the tuple out of the group
			// behind the previous change.
			did, err = b.change(row, pos, g.Attr, target, g, support, g.CFDID, merge, alts)
			if err == nil && ok {
				did2, err = b.change(row, brk.pos, brk.attr, brk.val, g, support,
					h.group.CFDID, "break membership via "+brk.attr, nil)
			}
		}
		if err != nil {
			return false, err
		}
		anyChange = anyChange || did || did2
	}
	return anyChange, nil
}

// pickCheapest prices each candidate and returns the cheapest plus the
// ranked rest.
func pickCheapest(m CostModel, id relstore.TupleID, attr string, old types.Value, cands []types.Value) (Alternative, []Alternative) {
	alts := make([]Alternative, 0, len(cands))
	for _, c := range cands {
		alts = append(alts, Alternative{Value: c, Cost: m.Cost(id, attr, old, c)})
	}
	slices.SortStableFunc(alts, func(a, b Alternative) int {
		if a.Cost != b.Cost {
			return byCost(a.Cost, b.Cost)
		}
		return strings.Compare(a.Value.Key(), b.Value.Key())
	})
	return alts[0], alts[1:]
}

// Fresh splits reviewed modifications, in order, into those that still
// apply to snap and the stale rest: a modification is fresh when its Old
// value Equals the cell's value after the fresh modifications before it, or
// in snap when none of them touched the cell. One of an attribute snap
// lacks is fresh: it is left to the write it goes into to refuse.
func Fresh(snap *relstore.Snapshot, mods []Modification) (fresh, stale []Modification) {
	sc, cols := snap.Schema(), snap.Columnar()
	accepted := map[cellKey]types.Value{}
	for _, m := range mods {
		pos, ok := sc.Pos(m.Attr)
		if !ok {
			fresh = append(fresh, m)
			continue
		}
		cur, ok := accepted[cellKey{m.TupleID, pos}]
		if row, live := slices.BinarySearch(cols.IDs(), m.TupleID); !ok && live {
			cur, ok = cols.Col(pos).Value(cols.Col(pos).Code(row)), true
		}
		if !ok || !cur.Equal(m.Old) {
			stale = append(stale, m)
			continue
		}
		accepted[cellKey{m.TupleID, pos}] = m.New
		fresh = append(fresh, m)
	}
	return fresh, stale
}
