// Command semandaq-bench regenerates the paper's figures (Figs. 2–5) as
// text tables. Run it with no arguments for every figure, or select some:
//
//	semandaq-bench                 # everything, full workloads
//	semandaq-bench -quick          # everything, shrunk workloads
//	semandaq-bench -exp F2 -exp F5 # selected figures
//	semandaq-bench -list           # list experiment IDs
//
// Performance is measured by `sh benchmark/run.sh`, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"semandaq/internal/experiments"
)

// expFlags collects repeated -exp flags.
type expFlags []string

func (e *expFlags) String() string { return fmt.Sprint([]string(*e)) }
func (e *expFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	var sel expFlags
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Var(&sel, "exp", "experiment ID to run (repeatable); default all")
	flag.Parse()

	// Interrupt cancels the context, so a Ctrl-C lands between detection
	// strides instead of waiting out the full-size figures.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	run := experiments.All()
	if len(sel) > 0 {
		run = run[:0]
		for _, id := range sel {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "semandaq-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			run = append(run, e)
		}
	}
	for i, e := range run {
		if i > 0 {
			fmt.Println()
		}
		if err := e.Run(ctx, os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "semandaq-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
