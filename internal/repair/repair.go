package repair

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// cancelStride is how many items the repair pass loops process between
// context cancellation checks.
const cancelStride = 4096

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

// cellKey identifies a cell (tuple, attribute).
type cellKey struct {
	id   relstore.TupleID
	attr string // lowercased
}

// cellHistory remembers how a cell was last changed, to detect oscillation
// between interacting CFDs (two groups tugging the same RHS cell).
type cellHistory struct {
	values  []types.Value // every value the cell has held this run
	support int           // backing of the last change (agreeing members)
	group   *detect.Group // group context of the last change (nil: constant)
	changes int
}

func (h *cellHistory) held(v types.Value) bool {
	for _, x := range h.values {
		if x.Equal(v) {
			return true
		}
	}
	return false
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
	maxPasses := r.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 20
	}
	maxChanges := r.MaxCellChanges
	if maxChanges <= 0 {
		maxChanges = 4
	}
	work := tab.Clone()
	res := &Result{Repaired: work}
	sc := work.Schema()

	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
	}

	history := map[cellKey]*cellHistory{}

	// detectPass runs one factorised detection round over the working
	// table's snapshot and returns the single-tuple violations, the groups
	// to resolve, and the total violation-record count (one record per
	// dirty group member, counted without materializing them). Multi-tuple
	// groups arrive as partition-class refs and become slim group headers
	// without per-member RHS maps: resolution re-reads the members' current
	// values from the working table (earlier fixes this pass may have
	// changed them), so those maps would be dead weight.
	detectPass := func() ([]detect.Violation, []*detect.Group, int, error) {
		fr, err := detect.DetectFactorised(ctx, work.Snapshot(), cfds)
		if err != nil {
			return nil, nil, 0, err
		}
		groups := make([]*detect.Group, len(fr.FactorGroups))
		remaining := len(fr.Violations)
		for i, g := range fr.FactorGroups {
			groups[i] = &detect.Group{
				CFDID:     g.CFDID,
				Attr:      g.Attr,
				LHSAttrs:  g.LHSAttrs,
				LHSValues: g.LHSValues,
				Members:   g.Members(),
			}
			remaining += g.Size()
		}
		return fr.Violations, groups, remaining, nil
	}

	// change applies one modification with history bookkeeping. Returns
	// false when the cell is frozen.
	change := func(id relstore.TupleID, attr string, newVal types.Value, support int, g *detect.Group, cfdID, reason string, alts []Alternative) (bool, error) {
		ck := cellKey{id, strings.ToLower(attr)}
		h := history[ck]
		if h != nil && h.changes >= maxChanges {
			return false, nil
		}
		pos := sc.MustPos(attr)
		row, ok := work.Get(id)
		if !ok {
			return false, nil
		}
		old := row[pos]
		if old.Equal(newVal) {
			return false, nil
		}
		if _, err := work.SetCell(id, pos, newVal); err != nil {
			return false, err
		}
		if h == nil {
			h = &cellHistory{values: []types.Value{old}}
			history[ck] = h
		}
		h.values = append(h.values, newVal)
		h.support = support
		h.group = g
		h.changes++
		cost := r.Cost.Cost(id, attr, old, newVal)
		res.Modifications = append(res.Modifications, Modification{
			TupleID: id, Attr: attr, Old: old, New: newVal,
			Cost: cost, CFDID: cfdID, Reason: reason, Alternatives: alts,
		})
		res.Cost += cost
		return true, nil
	}

	for pass := 0; pass < maxPasses; pass++ {
		violations, groups, remaining, err := detectPass()
		if err != nil {
			return nil, err
		}
		res.Passes = pass + 1
		if remaining == 0 {
			res.Converged = true
			return res, nil
		}

		changed := false

		// Step 2: constant-pattern fixes (a factorised report's Violations
		// are the single-tuple ones only). Violations are grouped per cell,
		// but only ONE constant fix is applied per tuple per pass — two
		// mutually-triggered constant patterns (e.g. CITY→AC and AC→CITY)
		// would otherwise flip both cells in tandem forever. Fixing the
		// cheapest cell first removes the other rule's premise.
		constFix := map[cellKey][]detect.Violation{}
		perTuple := map[relstore.TupleID][]cellKey{}
		var tupleOrder []relstore.TupleID
		n := 0
		for _, v := range violations {
			if n++; n%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			k := cellKey{v.TupleID, strings.ToLower(v.Attr)}
			if _, ok := constFix[k]; !ok {
				if len(perTuple[v.TupleID]) == 0 {
					tupleOrder = append(tupleOrder, v.TupleID)
				}
				perTuple[v.TupleID] = append(perTuple[v.TupleID], k)
			}
			constFix[k] = append(constFix[k], v)
		}
		for _, id := range tupleOrder {
			if n++; n%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			row, ok := work.Get(id)
			if !ok {
				continue
			}
			// Cheapest fix across this tuple's violated cells. A cell that
			// different rules want to set to DIFFERENT constants is
			// contested evidence (e.g. [CITY=x]→CNT=UK vs [CC=1]→CNT=US);
			// prefer an uncontested cell — fixing it usually removes the
			// contested rules' premises.
			type fix struct {
				attr      string
				best      Alternative
				alts      []Alternative
				cfd       string
				contested bool
			}
			var chosen *fix
			better := func(a, b *fix) bool {
				if a.contested != b.contested {
					return !a.contested
				}
				return a.best.Cost < b.best.Cost
			}
			for _, k := range perTuple[id] {
				vs := constFix[k]
				pos := sc.MustPos(vs[0].Attr)
				targets := constantTargets(vs)
				best, alts := pickCheapest(r.Cost, id, vs[0].Attr, row[pos], targets)
				f := &fix{attr: vs[0].Attr, best: best, alts: alts,
					cfd: vs[0].CFDID, contested: len(targets) > 1}
				if chosen == nil || better(f, chosen) {
					chosen = f
				}
			}
			if chosen == nil {
				continue
			}
			did, err := change(id, chosen.attr, chosen.best.Value, 1<<30, nil, chosen.cfd,
				"constant pattern "+chosen.best.Value.String(), chosen.alts)
			if err != nil {
				return nil, err
			}
			changed = changed || did
		}

		// Step 3: multi-tuple group merges with oscillation arbitration.
		for _, g := range groups {
			if n++; n%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			did, err := r.resolveGroup(work, g, history, change)
			if err != nil {
				return nil, err
			}
			changed = changed || did
		}

		if !changed {
			res.Remaining = remaining
			return res, nil
		}
	}

	_, _, remaining, err := detectPass()
	if err != nil {
		return nil, err
	}
	res.Remaining = remaining
	res.Converged = res.Remaining == 0
	return res, nil
}

// changeFn is the history-aware cell modifier used by resolveGroup.
type changeFn func(id relstore.TupleID, attr string, newVal types.Value, support int, g *detect.Group, cfdID, reason string, alts []Alternative) (bool, error)

// resolveGroup merges one violating group to its cost-optimal value,
// arbitrating oscillations via majority support and LHS breaking.
func (r *Repairer) resolveGroup(work *relstore.Table, g *detect.Group, history map[cellKey]*cellHistory, change changeFn) (bool, error) {
	sc := work.Schema()
	pos := sc.MustPos(g.Attr)

	members := append([]relstore.TupleID(nil), g.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	vals := map[relstore.TupleID]types.Value{}
	counts := map[string]int{}
	type cand struct {
		val   types.Value
		total float64
	}
	var candidates []cand
	seen := map[string]bool{}
	for _, id := range members {
		row, ok := work.Get(id)
		if !ok {
			continue
		}
		vals[id] = row[pos]
		counts[row[pos].Key()]++
		if !seen[row[pos].Key()] {
			seen[row[pos].Key()] = true
			candidates = append(candidates, cand{val: row[pos]})
		}
	}
	if len(candidates) <= 1 {
		return false, nil // already resolved by an earlier fix this pass
	}
	for i := range candidates {
		for _, id := range members {
			candidates[i].total += r.Cost.Cost(id, g.Attr, vals[id], candidates[i].val)
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].total != candidates[j].total {
			return candidates[i].total < candidates[j].total
		}
		return candidates[i].val.Key() < candidates[j].val.Key()
	})
	target := candidates[0]
	support := counts[target.val.Key()]

	anyChange := false
	for _, id := range members {
		old, ok := vals[id]
		if !ok || old.Equal(target.val) {
			continue
		}
		ck := cellKey{id, strings.ToLower(g.Attr)}
		if h := history[ck]; h != nil && h.held(target.val) {
			// Oscillation: another constraint moved this cell away from
			// target before. Arbitrate by the total modification cost of
			// the two consistent outcomes, measured from the tuple's
			// ORIGINAL values (reverting to the original is free — the
			// minimal-change principle of the cost-based repair model):
			//
			//	plan A: keep the previous value, break this group's
			//	        membership (change a LHS cell of this CFD);
			//	plan B: adopt this group's target, break the previous
			//	        group's membership.
			orig := h.values[0]
			const unbreakable = 1e9
			costA := r.Cost.Cost(id, g.Attr, orig, old)
			breakA := r.planBreak(work, id, g, h.group)
			if breakA == nil {
				costA += unbreakable
			} else {
				costA += breakA.cost
			}
			costB := r.Cost.Cost(id, g.Attr, orig, target.val)
			breakB := r.planBreak(work, id, h.group, g)
			if breakB == nil {
				costB += unbreakable
			} else {
				costB += breakB.cost
			}
			if costA <= costB {
				// Plan A: previous change stands; leave the RHS cell and
				// repair this group's LHS membership.
				if breakA != nil {
					did, err := change(id, breakA.attr, breakA.val, h.support, h.group,
						g.CFDID, "break membership via "+breakA.attr, nil)
					if err != nil {
						return false, err
					}
					anyChange = anyChange || did
				}
				continue
			}
			// Plan B: this group wins; apply the merge and break the
			// previous group's membership.
			losing := h.group
			var alts []Alternative
			for _, c := range candidates[1:] {
				alts = append(alts, Alternative{Value: c.val, Cost: r.Cost.Cost(id, g.Attr, old, c.val)})
			}
			did, err := change(id, g.Attr, target.val, support, g, g.CFDID,
				"merge group on "+g.Attr, alts)
			if err != nil {
				return false, err
			}
			anyChange = anyChange || did
			if losing != nil && breakB != nil {
				did, err := change(id, breakB.attr, breakB.val, support, g,
					losing.CFDID, "break membership via "+breakB.attr, nil)
				if err != nil {
					return false, err
				}
				anyChange = anyChange || did
			}
			continue
		}
		var alts []Alternative
		for _, c := range candidates[1:] {
			alts = append(alts, Alternative{Value: c.val, Cost: r.Cost.Cost(id, g.Attr, old, c.val)})
		}
		sort.SliceStable(alts, func(i, j int) bool { return alts[i].Cost < alts[j].Cost })
		did, err := change(id, g.Attr, target.val, support, g, g.CFDID,
			"merge group on "+g.Attr, alts)
		if err != nil {
			return false, err
		}
		anyChange = anyChange || did
	}
	return anyChange, nil
}

// breakOption is a planned LHS-cell repair that moves a tuple out of a
// losing group.
type breakOption struct {
	attr string
	val  types.Value
	cost float64
}

// planBreak finds the cheapest LHS attribute of the losing constraint whose
// repair moves the tuple out of the losing group: the new value is the
// majority value of that attribute among the winner group's members (the
// tuples the winner says this tuple belongs with). Returns nil when no LHS
// attribute can be repaired this way.
func (r *Repairer) planBreak(work *relstore.Table, id relstore.TupleID, losing, winner *detect.Group) *breakOption {
	return planBreakWith(r.Cost, work, id, losing, winner)
}

// planBreakWith is planBreak with an explicit cost model; shared with the
// incremental repairer.
func planBreakWith(cost CostModel, work *relstore.Table, id relstore.TupleID, losing, winner *detect.Group) *breakOption {
	if losing == nil || winner == nil || len(losing.LHSAttrs) == 0 {
		return nil
	}
	sc := work.Schema()
	row, ok := work.Get(id)
	if !ok {
		return nil
	}
	var best *breakOption
	for _, attr := range losing.LHSAttrs {
		pos, ok := sc.Pos(attr)
		if !ok {
			continue
		}
		// Majority value of attr among the winner group's other members.
		counts := map[string]int{}
		rep := map[string]types.Value{}
		for _, wid := range winner.Members {
			if wid == id {
				continue
			}
			wrow, ok := work.Get(wid)
			if !ok {
				continue
			}
			k := wrow[pos].Key()
			counts[k]++
			rep[k] = wrow[pos]
		}
		var bestKey string
		bestN := 0
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if counts[k] > bestN {
				bestKey, bestN = k, counts[k]
			}
		}
		if bestN == 0 {
			continue
		}
		val := rep[bestKey]
		if val.Equal(row[pos]) {
			continue // would not break the membership
		}
		c := cost.Cost(id, attr, row[pos], val)
		if best == nil || c < best.cost {
			best = &breakOption{attr: attr, val: val, cost: c}
		}
	}
	return best
}

// constantTargets lists the distinct expected constants of the violations.
func constantTargets(vs []detect.Violation) []types.Value {
	var out []types.Value
	seen := map[string]bool{}
	for _, v := range vs {
		if !seen[v.Expected.Key()] {
			seen[v.Expected.Key()] = true
			out = append(out, v.Expected)
		}
	}
	return out
}

// pickCheapest prices each candidate and returns the cheapest plus the
// ranked rest.
func pickCheapest(m CostModel, id relstore.TupleID, attr string, old types.Value, cands []types.Value) (Alternative, []Alternative) {
	alts := make([]Alternative, 0, len(cands))
	for _, c := range cands {
		alts = append(alts, Alternative{Value: c, Cost: m.Cost(id, attr, old, c)})
	}
	sort.SliceStable(alts, func(i, j int) bool {
		if alts[i].Cost != alts[j].Cost {
			return alts[i].Cost < alts[j].Cost
		}
		return alts[i].Value.Key() < alts[j].Value.Key()
	})
	return alts[0], alts[1:]
}

// Apply commits a reviewed candidate repair back to the original table.
// Each modification is applied through SetCell; a modification whose Old
// value no longer matches the live cell is skipped and reported (the data
// changed under the review, mirroring the paper's incremental re-detection
// during review).
func Apply(tab *relstore.Table, mods []Modification) (applied int, skipped []Modification, err error) {
	sc := tab.Schema()
	for _, m := range mods {
		pos, ok := sc.Pos(m.Attr)
		if !ok {
			return applied, skipped, fmt.Errorf("repair: apply: no attribute %q", m.Attr)
		}
		row, ok := tab.Get(m.TupleID)
		if !ok {
			skipped = append(skipped, m)
			continue
		}
		if !row[pos].Equal(m.Old) {
			skipped = append(skipped, m)
			continue
		}
		if _, err := tab.SetCell(m.TupleID, pos, m.New); err != nil {
			return applied, skipped, err
		}
		applied++
	}
	return applied, skipped, nil
}
