// Command semandaq-vet is the repo's contract checker: a multichecker
// over the custom analyzers in internal/lint that machine-check the lock
// invariants no dynamic gate catches (see docs/INVARIANTS.md).
//
//	semandaq-vet ./...            # check the whole module (CI does this)
//	semandaq-vet -list            # list analyzers
//	semandaq-vet -json ./...      # machine-readable diagnostics on stdout
//	semandaq-vet -run lockdiscipline ./internal/detect/...
//
// Packages are analyzed in import-DAG order so interprocedural analyzers
// (lockorder) see their dependencies' facts before the importers;
// module-wide End phases (lock-order cycle detection) run once after the
// last package. A //semandaq:vet-ignore directive that
// suppresses nothing is itself reported (as the pseudo-analyzer
// "suppression") — stale suppressions would otherwise hide real findings
// at that line forever.
//
// Exit status is 1 if any analyzer reports a diagnostic, 2 on load
// errors. Non-test files only. A finding can be suppressed at the
// line with `//semandaq:vet-ignore <analyzer> <reason>`; the reason is
// mandatory by convention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"semandaq/internal/lint"
	"semandaq/internal/lint/analysis"
	"semandaq/internal/lint/loader"
)

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is main with injectable streams and an exit code, so tests can
// drive the full driver in-process.
func run(stdout, stderr io.Writer, argv []string) int {
	fs := flag.NewFlagSet("semandaq-vet", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fs.Parse(argv)

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	allRan := *runNames == ""
	if !allRan {
		want := map[string]bool{}
		for _, n := range strings.Split(*runNames, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(stderr, "semandaq-vet: unknown analyzer %q (use -list)\n", n)
			return 2
		}
		analyzers = sel
	}

	// Expand Requires into the execution plan (this also registers every
	// fact type and analyzer name). Register the full suite's names too so
	// stale-directive judging can tell "skipped by -run" from "no such
	// analyzer" even on a subset run.
	plan := analysis.Plan(analyzers)
	for _, a := range lint.All() {
		analysis.RegisterName(a.Name)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "semandaq-vet: %v\n", err)
		return 2
	}

	store := analysis.NewFactStore()
	dirs := analysis.NewDirectives()
	loadFailed := false
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Err != nil {
			fmt.Fprintf(stderr, "semandaq-vet: %s: %v\n", pkg.ImportPath, pkg.Err)
			loadFailed = true
			continue
		}
		dirs.AddFiles(fset, pkg.Files)
		for _, a := range plan {
			ds, err := analysis.RunPass(a, fset, pkg.Files, pkg.Types, pkg.Info, store, dirs)
			if err != nil {
				fmt.Fprintf(stderr, "semandaq-vet: %v\n", err)
				return 2
			}
			diags = append(diags, ds...)
		}
	}
	for _, a := range plan {
		if a.End == nil {
			continue
		}
		ep := analysis.NewEndPass(a, store, dirs)
		if err := a.End(ep); err != nil {
			fmt.Fprintf(stderr, "semandaq-vet: %v\n", err)
			return 2
		}
		diags = append(diags, ep.Diagnostics()...)
	}
	// Stale suppressions are judged last, once every pass has had its
	// chance to be suppressed. A failed load leaves directives unexercised,
	// so skip the judgment rather than report false staleness.
	if !loadFailed {
		ran := map[string]bool{}
		for _, a := range plan {
			ran[a.Name] = true
		}
		diags = append(diags, dirs.Stale(ran, allRan)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position(fset), diags[j].Position(fset)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			p := d.Position(fset)
			out = append(out, jsonDiagnostic{
				File:     p.Filename,
				Line:     p.Line,
				Column:   p.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "semandaq-vet: encoding json: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s [%s]\n", d.Position(fset), d.Message, d.Analyzer)
		}
	}
	switch {
	case loadFailed:
		return 2
	case len(diags) > 0:
		fmt.Fprintf(stderr, "semandaq-vet: %d contract violation(s)\n", len(diags))
		return 1
	}
	return 0
}
