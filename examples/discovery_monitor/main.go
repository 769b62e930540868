// Discovery and monitoring: the "living database" scenario. CFDs are not
// written by hand but mined from trusted reference data (the paper's
// "automatically discovered from reference data"); the discovered set is
// registered (passing the satisfiability gate) and a data monitor then
// keeps a stream of incoming updates clean via incremental detection and
// incremental repair.
//
//	go run ./examples/discovery_monitor
package main

import (
	"context"
	"fmt"
	"log"

	"semandaq"
)

func main() {
	ctx := context.Background()
	// Trusted reference data: a clean sample of last quarter's customers.
	ref := semandaq.GenerateCustomers(semandaq.GeneratorConfig{Tuples: 3000, Seed: 8})

	sys := semandaq.New()
	sys.RegisterTable(ref.Clean)

	// Mine CFDs from the reference data: a snapshot-pinned lattice search,
	// so the report says exactly which table version the rules reflect.
	rep, err := sys.Discover(ctx, "customer",
		semandaq.WithMinSupport(100), semandaq.WithMaxLHS(2))
	if err != nil {
		log.Fatal(err)
	}
	cfds := rep.CFDs
	fmt.Printf("discovered %d CFDs (%d candidate patterns) from %d reference tuples at version %d; a sample:\n",
		len(cfds), len(rep.Candidates), rep.Tuples, rep.Version)
	for i, c := range cfds {
		if i >= 6 {
			fmt.Printf("  ... and %d more\n", len(cfds)-6)
			break
		}
		fmt.Printf("  %s\n", c)
	}

	// Register them (the constraint engine re-checks satisfiability).
	if err := sys.RegisterCFDs("customer", cfds); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndiscovered set registered: satisfiable")

	// The reference data itself is clean under the mined rules.
	det, err := sys.Detect(ctx, "customer", semandaq.WithEngine(semandaq.ColumnarDetection))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference data: %d violations (must be 0)\n\n", det.TotalViolations())

	// Start the monitor in cleansed mode and feed it dirty updates: new
	// records arriving from an unreliable upstream system.
	mon, err := sys.Monitor(ctx, "customer", semandaq.WithCleansed(true))
	if err != nil {
		log.Fatal(err)
	}
	incoming := semandaq.GenerateCustomers(semandaq.GeneratorConfig{
		Tuples: 200, Seed: 99, NoiseRate: 0.3,
	})
	rows := incoming.Dirty.Snapshot().Rows()

	totalRepairs := 0
	for start := 0; start < len(rows); start += 50 {
		end := start + 50
		if end > len(rows) {
			end = len(rows)
		}
		var batch []semandaq.MonitorUpdate
		for _, row := range rows[start:end] {
			batch = append(batch, semandaq.MonitorUpdate{Op: semandaq.OpInsert, Row: row})
		}
		res, err := mon.Apply(batch)
		if err != nil {
			log.Fatal(err)
		}
		totalRepairs += len(res.Repairs)
		fmt.Printf("batch %2d..%3d: %2d incremental repairs, dirty after = %d\n",
			start, end, len(res.Repairs), res.Dirty)
	}
	fmt.Printf("\nstream done: %d updates, %d incremental repairs, final dirty count = %d\n",
		len(rows), totalRepairs, mon.DirtyCount())

	// Show a couple of the monitor's fixes.
	tab, err := sys.Table("customer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table now holds %d tuples and satisfies all %d discovered CFDs\n",
		tab.Len(), len(cfds))
}
