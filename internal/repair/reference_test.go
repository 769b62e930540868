package repair

// The row-based repairers the code-level ones replaced, kept as the reference
// they are held to (identifiers prefixed, cancellation polls dropped): every
// cell is read with Table.Get, groups are tallied in maps keyed by
// Value.Key(), and the incremental repairer reads the tracker's exploded
// report. FuzzRepairReference and TestRepairMatchesRowReference require
// identical results.

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

type refCellKey struct {
	id   relstore.TupleID
	attr string // lowercased
}

type refCellHistory struct {
	values  []types.Value
	support int
	group   *detect.Group
	changes int
}

func (h *refCellHistory) held(v types.Value) bool {
	for _, x := range h.values {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

type refChangeFn func(id relstore.TupleID, attr string, newVal types.Value, support int, g *detect.Group, cfdID, reason string, alts []Alternative) (bool, error)

type refBreakOption struct {
	attr string
	val  types.Value
	cost float64
}

func refRepair(r *Repairer, ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Result, error) {
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

	history := map[refCellKey]*refCellHistory{}

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

	change := func(id relstore.TupleID, attr string, newVal types.Value, support int, g *detect.Group, cfdID, reason string, alts []Alternative) (bool, error) {
		ck := refCellKey{id, strings.ToLower(attr)}
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
			h = &refCellHistory{values: []types.Value{old}}
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
		constFix := map[refCellKey][]detect.Violation{}
		perTuple := map[relstore.TupleID][]refCellKey{}
		var tupleOrder []relstore.TupleID
		for _, v := range violations {
			k := refCellKey{v.TupleID, strings.ToLower(v.Attr)}
			if _, ok := constFix[k]; !ok {
				if len(perTuple[v.TupleID]) == 0 {
					tupleOrder = append(tupleOrder, v.TupleID)
				}
				perTuple[v.TupleID] = append(perTuple[v.TupleID], k)
			}
			constFix[k] = append(constFix[k], v)
		}
		for _, id := range tupleOrder {
			row, ok := work.Get(id)
			if !ok {
				continue
			}
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
				targets := refConstantTargets(vs)
				best, alts := refPickCheapest(r.Cost, id, vs[0].Attr, row[pos], targets)
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

		for _, g := range groups {
			did, err := refResolveGroup(r, work, g, history, change)
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

func refResolveGroup(r *Repairer, work *relstore.Table, g *detect.Group, history map[refCellKey]*refCellHistory, change refChangeFn) (bool, error) {
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
		return false, nil
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
		ck := refCellKey{id, strings.ToLower(g.Attr)}
		if h := history[ck]; h != nil && h.held(target.val) {
			orig := h.values[0]
			const unbreakable = 1e9
			costA := r.Cost.Cost(id, g.Attr, orig, old)
			breakA := refPlanBreakWith(r.Cost, work, id, g, h.group)
			if breakA == nil {
				costA += unbreakable
			} else {
				costA += breakA.cost
			}
			costB := r.Cost.Cost(id, g.Attr, orig, target.val)
			breakB := refPlanBreakWith(r.Cost, work, id, h.group, g)
			if breakB == nil {
				costB += unbreakable
			} else {
				costB += breakB.cost
			}
			if costA <= costB {
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

func refPlanBreakWith(cost CostModel, work *relstore.Table, id relstore.TupleID, losing, winner *detect.Group) *refBreakOption {
	if losing == nil || winner == nil || len(losing.LHSAttrs) == 0 {
		return nil
	}
	sc := work.Schema()
	row, ok := work.Get(id)
	if !ok {
		return nil
	}
	var best *refBreakOption
	for _, attr := range losing.LHSAttrs {
		pos, ok := sc.Pos(attr)
		if !ok {
			continue
		}
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
			continue
		}
		c := cost.Cost(id, attr, row[pos], val)
		if best == nil || c < best.cost {
			best = &refBreakOption{attr: attr, val: val, cost: c}
		}
	}
	return best
}

func refConstantTargets(vs []detect.Violation) []types.Value {
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

func refPickCheapest(m CostModel, id relstore.TupleID, attr string, old types.Value, cands []types.Value) (Alternative, []Alternative) {
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

type refProposal struct {
	attr  string
	val   types.Value
	votes int
	cost  float64
	group *detect.Group
	cfdID string
}

func refRepairDelta(ir *IncRepairer, tr *detect.Tracker, tab *relstore.Table, cfds []*cfd.CFD, delta []relstore.TupleID) ([]Modification, error) {
	maxPasses := ir.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 15
	}
	inDelta := make(map[relstore.TupleID]bool, len(delta))
	for _, id := range delta {
		inDelta[id] = true
	}
	sc := tab.Schema()
	var mods []Modification
	history := map[refCellKey][]types.Value{}
	lastGroup := map[refCellKey]*detect.Group{}

	held := func(ck refCellKey, v types.Value) bool {
		for _, x := range history[ck] {
			if x.Equal(v) {
				return true
			}
		}
		return false
	}

	set := func(id relstore.TupleID, attr string, val types.Value, g *detect.Group, cfdID, reason string) error {
		pos := sc.MustPos(attr)
		row, ok := tab.Get(id)
		if !ok || row[pos].Equal(val) {
			return nil
		}
		old := row[pos]
		ck := refCellKey{id, strings.ToLower(attr)}
		if len(history[ck]) == 0 {
			history[ck] = append(history[ck], old)
		}
		if err := tr.SetCell(id, attr, val); err != nil {
			return err
		}
		history[ck] = append(history[ck], val)
		lastGroup[ck] = g
		mods = append(mods, Modification{
			TupleID: id, Attr: attr, Old: old, New: val,
			Cost: ir.Cost.Cost(id, attr, old, val), CFDID: cfdID, Reason: reason,
		})
		return nil
	}

	for pass := 0; pass < maxPasses; pass++ {
		rep := tr.Report()
		before := len(mods)

		props := map[relstore.TupleID]map[string]*refProposal{}
		add := func(id relstore.TupleID, attr string, val types.Value, g *detect.Group, cfdID string) {
			row, ok := tab.Get(id)
			if !ok {
				return
			}
			pos := sc.MustPos(attr)
			if row[pos].Equal(val) {
				return
			}
			m := props[id]
			if m == nil {
				m = map[string]*refProposal{}
				props[id] = m
			}
			key := strings.ToLower(attr) + "|" + val.Key()
			p := m[key]
			if p == nil {
				p = &refProposal{attr: attr, val: val,
					cost:  ir.Cost.Cost(id, attr, row[pos], val),
					cfdID: cfdID}
				m[key] = p
			}
			p.votes++
			if g != nil && (p.group == nil || len(g.Members) > len(p.group.Members)) {
				p.group = g
			}
		}

		for _, v := range rep.Violations {
			if v.Kind != detect.SingleTuple || !inDelta[v.TupleID] {
				continue
			}
			add(v.TupleID, v.Attr, v.Expected, nil, v.CFDID)
		}
		for _, g := range rep.Groups {
			pos := sc.MustPos(g.Attr)
			var deltaMembers, fixedMembers []relstore.TupleID
			for _, id := range g.Members {
				if inDelta[id] {
					deltaMembers = append(deltaMembers, id)
				} else {
					fixedMembers = append(fixedMembers, id)
				}
			}
			if len(deltaMembers) == 0 {
				continue
			}
			var target types.Value
			ok := false
			if len(fixedMembers) > 0 {
				target, ok = refMajorityValue(tab, fixedMembers, pos)
			} else {
				target, ok = refCheapestMerge(ir.Cost, tab, deltaMembers, g.Attr, pos)
			}
			if !ok {
				continue
			}
			for _, id := range deltaMembers {
				add(id, g.Attr, target, g, g.CFDID)
			}
		}

		ids := make([]relstore.TupleID, 0, len(props))
		for id := range props {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			var list []*refProposal
			for _, p := range props[id] {
				list = append(list, p)
			}
			sort.SliceStable(list, func(i, j int) bool {
				if list[i].votes != list[j].votes {
					return list[i].votes > list[j].votes
				}
				if list[i].cost != list[j].cost {
					return list[i].cost < list[j].cost
				}
				if !list[i].val.Equal(list[j].val) {
					return list[i].val.Key() < list[j].val.Key()
				}
				return list[i].attr < list[j].attr
			})
			applied := false
			for _, p := range list {
				ck := refCellKey{id, strings.ToLower(p.attr)}
				if !held(ck, p.val) {
					if err := set(id, p.attr, p.val, p.group, p.cfdID, "inc: "+refReasonOf(p)); err != nil {
						return nil, err
					}
					applied = true
					break
				}
			}
			if applied {
				continue
			}
			p := list[0]
			ck := refCellKey{id, strings.ToLower(p.attr)}
			orig := history[ck][0]
			prev := lastGroup[ck]
			row, ok := tab.Get(id)
			if !ok {
				continue
			}
			pos := sc.MustPos(p.attr)
			const unbreakable = 1e9
			costKeep := ir.Cost.Cost(id, p.attr, orig, row[pos])
			breakKeep := refPlanBreakWith(ir.Cost, tab, id, p.group, prev)
			if breakKeep == nil {
				costKeep += unbreakable
			} else {
				costKeep += breakKeep.cost
			}
			costApply := ir.Cost.Cost(id, p.attr, orig, p.val)
			breakApply := refPlanBreakWith(ir.Cost, tab, id, prev, p.group)
			if breakApply == nil {
				costApply += unbreakable
			} else {
				costApply += breakApply.cost
			}
			if costKeep <= costApply {
				if breakKeep != nil {
					ck2 := refCellKey{id, strings.ToLower(breakKeep.attr)}
					if !held(ck2, breakKeep.val) {
						if err := set(id, breakKeep.attr, breakKeep.val, prev, p.cfdID,
							"inc: break membership via "+breakKeep.attr); err != nil {
							return nil, err
						}
					}
				}
				continue
			}
			if err := set(id, p.attr, p.val, p.group, p.cfdID, "inc: arbitrated merge"); err != nil {
				return nil, err
			}
			if breakApply != nil {
				ck2 := refCellKey{id, strings.ToLower(breakApply.attr)}
				if !held(ck2, breakApply.val) {
					if err := set(id, breakApply.attr, breakApply.val, p.group, p.cfdID,
						"inc: break membership via "+breakApply.attr); err != nil {
						return nil, err
					}
				}
			}
		}

		if len(mods) == before {
			break
		}
	}
	return mods, nil
}

func refReasonOf(p *refProposal) string {
	if p.group != nil {
		return "align with clean data"
	}
	return "constant pattern"
}

func refMajorityValue(tab *relstore.Table, ids []relstore.TupleID, pos int) (types.Value, bool) {
	counts := map[string]int{}
	rep := map[string]types.Value{}
	for _, id := range ids {
		row, ok := tab.Get(id)
		if !ok {
			continue
		}
		k := row[pos].Key()
		counts[k]++
		rep[k] = row[pos]
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bestN := 0
	var best types.Value
	for _, k := range keys {
		if counts[k] > bestN {
			bestN = counts[k]
			best = rep[k]
		}
	}
	return best, bestN > 0
}

func refCheapestMerge(cost CostModel, tab *relstore.Table, ids []relstore.TupleID, attr string, pos int) (types.Value, bool) {
	vals := map[relstore.TupleID]types.Value{}
	var distinct []types.Value
	seen := map[string]bool{}
	for _, id := range ids {
		row, ok := tab.Get(id)
		if !ok {
			continue
		}
		vals[id] = row[pos]
		if !seen[row[pos].Key()] {
			seen[row[pos].Key()] = true
			distinct = append(distinct, row[pos])
		}
	}
	bestCost := -1.0
	var best types.Value
	for _, cand := range distinct {
		total := 0.0
		for _, id := range ids {
			total += cost.Cost(id, attr, vals[id], cand)
		}
		if bestCost < 0 || total < bestCost ||
			(total == bestCost && cand.Key() < best.Key()) {
			best, bestCost = cand, total
		}
	}
	return best, bestCost >= 0
}

// sameResult reports how got differs from want: every Modification (%#v, so
// NaN compares like NaN and the Alternatives' nil-ness counts), the Cost bits,
// Passes, Converged and Remaining.
func sameResult(got, want *Result) error {
	if g, w := fmt.Sprintf("%#v", got.Modifications), fmt.Sprintf("%#v", want.Modifications); g != w {
		return fmt.Errorf("modifications differ:\n got %s\nwant %s", g, w)
	}
	if fmt.Sprintf("%b", got.Cost) != fmt.Sprintf("%b", want.Cost) || got.Passes != want.Passes ||
		got.Converged != want.Converged || got.Remaining != want.Remaining {
		return fmt.Errorf("cost %v passes %d converged %v remaining %d, want %v %d %v %d",
			got.Cost, got.Passes, got.Converged, got.Remaining, want.Cost, want.Passes, want.Converged, want.Remaining)
	}
	return nil
}
