package experiments

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"semandaq/internal/audit"
	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/explore"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// fig2Table builds the exact running example of the paper's Fig. 2: a
// customer table where the UK zip EH2 4SD carries three distinct streets.
func fig2Table() *relstore.Table {
	tab := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	rows := [][]string{
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Nora", "UK", "Edinburgh", "EH2 4SD", "Crichton", "44", "131"},
		{"Olaf", "UK", "Edinburgh", "EH2 4SD", "Lauriston", "44", "131"},
		{"Ann", "UK", "London", "SW1A 1AA", "Downing", "44", "20"},
		{"Joe", "US", "New York", "01202", "Mtn Ave", "1", "908"},
	}
	for _, r := range rows {
		row := make(relstore.Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	return tab
}

func fig2CFDs() []*cfd.CFD {
	cfds, err := cfd.ParseSet(`
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi4@ customer: [CC=44] -> [CNT=UK]
`)
	if err != nil {
		panic(err)
	}
	return cfds
}

// RunF2 regenerates the Fig. 2 drill-down: select the FD, its pattern
// tuples, the matching LHS values, and the distinct RHS values for one
// group — each level annotated with violation counts, as in the demo.
func RunF2(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "F2", "data exploration drill-down (paper Fig. 2)")
	tab := fig2Table()
	cfds := fig2CFDs()
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(ctx, tab, cfds)
	if err != nil {
		return err
	}
	ex, err := explore.New(tab.Snapshot(), cfds, rep)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\n[1] CFDs (embedded FDs):")
	for _, info := range ex.CFDs() {
		fmt.Fprintf(w, "    %-6s %-40s violations=%d\n", info.ID, info.FD, info.Violations)
	}

	fmt.Fprintln(w, "\n[2] pattern tuples of phi2:")
	pats, err := ex.Patterns("phi2")
	if err != nil {
		return err
	}
	for _, p := range pats {
		fmt.Fprintf(w, "    #%d %-20s matches=%d violations=%d\n",
			p.Index, p.Pattern, p.Matches, p.Violations)
	}

	fmt.Fprintln(w, "\n[3] distinct LHS values matching pattern (UK, _):")
	groups, err := ex.LHSGroups("phi2", 0)
	if err != nil {
		return err
	}
	for _, g := range groups {
		vals := make([]string, len(g.Values))
		for i, v := range g.Values {
			vals[i] = v.String()
		}
		fmt.Fprintf(w, "    [%s]  tuples=%d rhsValues=%d violations=%d\n",
			strings.Join(vals, ", "), g.Tuples, g.RHSValues, g.Violations)
	}

	fmt.Fprintln(w, "\n[4] distinct RHS (STR) values for [UK, EH2 4SD] — the paper's three streets:")
	lhs := []types.Value{types.NewString("UK"), types.NewString("EH2 4SD")}
	rhs, err := ex.RHSValues("phi2", 0, lhs)
	if err != nil {
		return err
	}
	for _, v := range rhs {
		marker := ""
		if v.Majority {
			marker = "  <- majority"
		}
		fmt.Fprintf(w, "    %-12s tuples=%d violations=%d%s\n", v.Value, v.Tuples, v.Violations, marker)
	}

	fmt.Fprintln(w, "\n[5] tuples holding RHS value Mayfield:")
	tuples, err := ex.Tuples("phi2", 0, lhs, types.NewString("Mayfield"))
	if err != nil {
		return err
	}
	for _, t := range tuples {
		fmt.Fprintf(w, "    t%d vio=%d %v\n", t.ID, t.Vio, t.Row)
	}

	fmt.Fprintln(w, "\n[reverse] CFDs relevant to tuple 0 (Mike):")
	rels, err := ex.ForTuple(0)
	if err != nil {
		return err
	}
	for _, r := range rels {
		fmt.Fprintf(w, "    %-6s pattern %s violated=%v\n", r.CFDID, r.Text, r.Violated)
	}
	return nil
}

// f3Workload is the shared 10k/5% workload of F3–F5.
func f3Workload(quick bool) (*datagen.Dataset, []*cfd.CFD) {
	n := 10000
	if quick {
		n = 1000
	}
	ds := datagen.Generate(datagen.Config{Tuples: n, Seed: 42, NoiseRate: 0.05})
	return ds, datagen.StandardCFDs()
}

// RunF3 regenerates Fig. 3: SQL-based detection plus the tuple-level data
// quality map (vio(t) bucketed into color intensities).
func RunF3(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "F3", "error detection and data quality map (paper Fig. 3)")
	ds, cfds := f3Workload(quick)
	store := relstore.NewStore()
	store.Put(ds.Dirty)
	rep, err := detect.NewSQLDetector(store).Detect(ctx, ds.Dirty, cfds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d tuples, %d injected errors -> %d dirty tuples, %d violation records\n",
		rep.TupleCount, len(ds.Corruptions), len(rep.Vio), rep.TotalViolations())
	fmt.Fprintln(w, "per CFD:")
	for _, id := range slices.Sorted(maps.Keys(rep.PerCFD)) {
		st := rep.PerCFD[id]
		fmt.Fprintf(w, "  %-12s single=%-5d multi=%-5d groups=%d\n", id, st.SingleTuple, st.MultiTuple, st.Groups)
	}
	ex, err := explore.New(ds.Dirty.Snapshot(), cfds, rep)
	if err != nil {
		return err
	}
	entries, hist := ex.QualityMap()
	fmt.Fprintf(w, "quality-map histogram (clean .. dirtiest): %v\n", hist)
	fmt.Fprintln(w, "first dirty rows of the map (darker = dirtier):")
	shades := []string{" ", "░", "▒", "▓", "█"}
	shown := 0
	for _, e := range entries {
		if e.Vio == 0 {
			continue
		}
		fmt.Fprintf(w, "  t%-6d %s vio=%d\n", e.ID, shades[e.Bucket], e.Vio)
		shown++
		if shown >= 10 {
			break
		}
	}
	return nil
}

// RunF4 regenerates Fig. 4: the data quality report with the
// verified/probably/arguably clean bar chart and the violation pie chart.
func RunF4(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "F4", "data quality report (paper Fig. 4)")
	ds, cfds := f3Workload(quick)
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(ctx, ds.Dirty, cfds)
	if err != nil {
		return err
	}
	a, err := audit.Audit(ds.Dirty.Snapshot(), cfds, rep)
	if err != nil {
		return err
	}
	fmt.Fprint(w, a.Render())
	return nil
}

// RunF5 regenerates Fig. 5: the data cleansing review — the candidate
// repair with highlighted modifications and ranked alternatives, plus the
// incremental re-detection triggered by a user edit.
func RunF5(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "F5", "data cleansing review (paper Fig. 5)")
	ds, cfds := f3Workload(quick)
	res, err := repair.NewRepairer().Repair(ctx, ds.Dirty, cfds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "candidate repair: %d modifications, cost %.2f, %d passes, converged=%v\n",
		len(res.Modifications), res.Cost, res.Passes, res.Converged)
	score := ds.ScoreRepairCells(res.Repaired, res.ModifiedCells())
	fmt.Fprintf(w, "quality vs ground truth: precision=%.3f recall=%.3f F1=%.3f\n",
		score.Precision(), score.Recall(), score.F1())
	fmt.Fprintln(w, "first modifications (red cells of Fig. 5), with ranked alternatives:")
	for i, m := range res.Modifications {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "  t%d %s: %v -> %v   (%s; %s)\n", m.TupleID, m.Attr, m.Old, m.New, m.CFDID, m.Reason)
		for j, a := range m.Alternatives {
			if j >= 3 {
				break
			}
			fmt.Fprintf(w, "      alt %d: %v (cost %.2f)\n", j+1, a.Value, a.Cost)
		}
	}
	if len(res.Modifications) == 0 {
		return nil
	}

	// The review interaction: the user overrides one repaired value; a
	// background incremental detection immediately shows the conflicts the
	// change (re)introduces.
	m := res.Modifications[0]
	tr, err := detect.NewTracker(res.Repaired, cfds)
	if err != nil {
		return err
	}
	before := tr.VioMap()
	if err := tr.SetCell(m.TupleID, m.Attr, m.Old); err != nil {
		return err
	}
	after := tr.VioMap()
	fmt.Fprintf(w, "\nuser reverts t%d.%s to %v: incremental re-detection flags %d tuple(s) (dirty %d -> %d)\n",
		m.TupleID, m.Attr, m.Old, vioChanges(before, after), len(before), len(after))
	return nil
}

// vioChanges counts the tuples whose vio(t) differs between two VioMaps.
func vioChanges(before, after map[relstore.TupleID]int) int {
	n := 0
	for id, v := range after {
		if before[id] != v {
			n++
		}
	}
	for id := range before {
		if _, ok := after[id]; !ok {
			n++
		}
	}
	return n
}
