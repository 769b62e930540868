// Customer cleaning: the full Semandaq pipeline on a realistic workload —
// 10,000 synthetic customer records with 5% injected errors (the shape of
// the companion papers' evaluations). It walks the whole demo:
//
//  1. consistency check of the CFD set (constraint engine);
//  2. SQL-based violation detection, printing the generated SQL;
//  3. the data quality report (audit) and quality map;
//  4. interactive-style exploration of the worst CFD;
//  5. cost-based repair, scored against the known ground truth.
//
// go run ./examples/customer_cleaning
package main

import (
	"context"
	"fmt"
	"log"

	"semandaq"
)

func main() {
	ctx := context.Background()
	// Generate the workload: clean world + seeded corruption with ground
	// truth remembered for scoring.
	ds := semandaq.GenerateCustomers(semandaq.GeneratorConfig{
		Tuples: 10000, Seed: 42, NoiseRate: 0.05,
	})
	fmt.Printf("generated %d customers, %d corrupted cells\n",
		ds.Dirty.Len(), len(ds.Corruptions))

	sys := semandaq.New()
	sys.RegisterTable(ds.Dirty)
	if err := sys.RegisterCFDs("customer", semandaq.StandardCFDs()); err != nil {
		log.Fatal(err)
	}

	// 1. Static analysis.
	cons, err := sys.CheckConsistency("customer", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constraint engine: CFD set satisfiable = %v\n\n", cons.Satisfiable)

	// 2. Detection — show the SQL the error detector generates, then run it.
	stmts, err := sys.DetectionSQL("customer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated detection SQL (one Qc/Qv pair per merged CFD):")
	for _, q := range stmts {
		fmt.Println(q + ";")
	}
	rep, err := sys.Detect(ctx, "customer", semandaq.WithEngine(semandaq.SQLDetection))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndetected: %d dirty tuples, %d violation records, max vio(t)=%d\n",
		len(rep.Vio), rep.TotalViolations(), rep.MaxVio())

	// 3. Audit.
	audit, err := sys.Audit(ctx, "customer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(audit.Render())

	// 4. Exploration: drill into the CFD with the most violations.
	ex, err := sys.Explore(ctx, "customer")
	if err != nil {
		log.Fatal(err)
	}
	infos := ex.CFDs()
	worst := infos[0]
	for _, info := range infos {
		if info.Violations > worst.Violations {
			worst = info
		}
	}
	fmt.Printf("\nexploring %s (%s), %d violating tuples:\n", worst.ID, worst.FD, worst.Violations)
	pats, err := ex.Patterns(worst.ID)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pats {
		fmt.Printf("  pattern %s: %d matches, %d violations\n", p.Pattern, p.Matches, p.Violations)
	}
	groups, err := ex.LHSGroups(worst.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, g := range groups {
		if g.Violations == 0 {
			continue
		}
		fmt.Printf("  LHS %v: %d tuples, %d distinct RHS values, %d violations\n",
			g.Values, g.Tuples, g.RHSValues, g.Violations)
		if shown++; shown >= 3 {
			break
		}
	}

	// 5. Repair, then score against ground truth.
	res, err := sys.Repair(ctx, "customer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepair: %d modifications in %d passes, cost %.1f, converged=%v\n",
		len(res.Modifications), res.Passes, res.Cost, res.Converged)
	score := ds.ScoreRepairCells(res.Repaired, res.ModifiedCells())
	fmt.Printf("vs ground truth: precision=%.3f recall=%.3f F1=%.3f\n",
		score.Precision(), score.Recall(), score.F1())

	if _, _, err := sys.ApplyRepair("customer", res.Modifications); err != nil {
		log.Fatal(err)
	}
	rep, err = sys.Detect(ctx, "customer", semandaq.WithEngine(semandaq.ColumnarDetection))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after applying the repair: %d violations remain\n", rep.TotalViolations())
}
