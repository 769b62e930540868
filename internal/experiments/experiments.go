// Package experiments regenerates the figures of the Semandaq paper (Figs.
// 2–5): each experiment prints the table/series the paper's artifact shows,
// and cmd/semandaq-bench runs them from the command line. Performance is
// not measured here — `sh benchmark/run.sh` is the repo's one scoreboard.
package experiments

import (
	"context"
	"fmt"
	"io"
)

// Exp is one reproducible experiment.
type Exp struct {
	// ID is the experiment key (F2..F5, after the paper's figure numbers).
	ID string
	// Title says which paper artifact it regenerates.
	Title string
	// Run executes the experiment, printing its table to w. The caller's
	// ctx cancels it mid-flight (semandaq-bench wires it to SIGINT; tests
	// use the test context). quick shrinks the workload for smoke tests.
	Run func(ctx context.Context, w io.Writer, quick bool) error
}

// All returns every experiment in presentation order.
func All() []Exp {
	return []Exp{
		{ID: "F2", Title: "Fig. 2 — data exploration drill-down", Run: RunF2},
		{ID: "F3", Title: "Fig. 3 — error detection and data quality map", Run: RunF3},
		{ID: "F4", Title: "Fig. 4 — data quality report", Run: RunF4},
		{ID: "F5", Title: "Fig. 5 — data cleansing review", Run: RunF5},
	}
}

// ByID finds one experiment.
func ByID(id string) (Exp, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Exp{}, false
}

// header prints an experiment banner.
func header(w io.Writer, e string, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", e, title)
}
