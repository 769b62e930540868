// Command semandaq is the command-line front end to the Semandaq data
// quality system: load a CSV, register CFDs, then detect, audit, explore,
// repair or monitor from a terminal.
//
// Usage:
//
//	semandaq -data customers.csv -cfds rules.cfd <command>
//
// Commands:
//
//	check      check the CFD set for satisfiability
//	detect     run violation detection (use -engine sql|parallel|columnar;
//	           -stream prints the violations as NDJSON)
//	sql        print the generated detection SQL without running it
//	audit      print the data quality report
//	map        print the tuple-level data quality map
//	explore    drill down: explore [cfdID [patternIdx]]
//	repair     compute a candidate repair; -apply commits it
//	discover   mine CFDs from the loaded data
//	demo       run the built-in paper example end to end
//
// Long scans are cancellable: Ctrl-C (or -timeout) aborts detection
// mid-flight through the request context.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "semandaq:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("semandaq", flag.ContinueOnError)
	dataPath := fs.String("data", "", "CSV file holding the relation to check")
	tableName := fs.String("table", "", "table name (default: file base name)")
	cfdPath := fs.String("cfds", "", "file with CFDs, one pattern per line")
	engine := fs.String("engine", "sql", "detection engine: sql, parallel or columnar (native is an alias of columnar)")
	workers := fs.Int("workers", 0, "parallel engine worker count (default GOMAXPROCS)")
	stream := fs.Bool("stream", false, "detect: print the violations as NDJSON")
	timeout := fs.Duration("timeout", 0, "abort the command after this duration (0 = none)")
	apply := fs.Bool("apply", false, "repair: apply the candidate repair and write the CSV back")
	outPath := fs.String("o", "", "repair -apply: output CSV path (default: overwrite -data)")
	minSupport := fs.Int("minsupport", 0, "discover: minimum pattern support (0 = max(2, N/100); explicit values, including 1, always win)")
	maxLHS := fs.Int("maxlhs", 2, "discover: maximum LHS size (lattice depth)")
	minConfidence := fs.Float64("minconfidence", 0, "discover: minimum FD confidence (0 = exact only; <1 admits approximate CFDs)")
	verbose := fs.Bool("v", false, "discover: also print every candidate with support and confidence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cmdArgs := fs.Args()
	if len(cmdArgs) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	cmd := cmdArgs[0]

	s := core.New()
	table := *tableName

	if cmd == "demo" {
		return demo(ctx, s, out)
	}

	if *dataPath == "" {
		return fmt.Errorf("-data is required for %s", cmd)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if table == "" {
		base := *dataPath
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		table = strings.TrimSuffix(base, ".csv")
	}
	body := io.Reader(f)
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		body = relstore.Sized{Reader: f, N: int(st.Size())}
	}
	tab, err := s.LoadCSV(table, body)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s: %d tuples, schema %s\n", table, tab.Len(), tab.Schema())

	if cmd != "discover" {
		if *cfdPath == "" {
			return fmt.Errorf("-cfds is required for %s", cmd)
		}
		text, err := os.ReadFile(*cfdPath)
		if err != nil {
			return err
		}
		cfds, err := s.RegisterCFDText(table, string(text))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "registered %d CFDs (satisfiable)\n", len(cfds))
	}

	switch cmd {
	case "check":
		rep, err := s.CheckConsistency(table, nil)
		if err != nil {
			return err
		}
		if rep.Satisfiable {
			fmt.Fprintln(out, "CFD set is satisfiable")
		} else {
			fmt.Fprintf(out, "CFD set is UNSATISFIABLE: %s\n", rep.Conflict)
		}
		return nil

	case "sql":
		stmts, err := s.DetectionSQL(table)
		if err != nil {
			return err
		}
		for _, q := range stmts {
			fmt.Fprintln(out, q+";")
			fmt.Fprintln(out)
		}
		return nil

	case "detect":
		kind, err := core.ParseDetectorKind(*engine)
		if err != nil {
			return err
		}
		opts := []core.Option{core.WithWorkers(*workers), core.WithEngine(kind)}
		if *stream {
			// Violations print one by one, in the report's canonical
			// order; the report is never exploded.
			type line struct {
				CFD      string `json:"cfd"`
				Kind     string `json:"kind"`
				Pattern  *int   `json:"pattern,omitempty"`
				Tuple    int64  `json:"tuple"`
				Attr     string `json:"attr"`
				Partners int    `json:"partners,omitempty"`
				Expected string `json:"expected,omitempty"`
				Got      string `json:"got,omitempty"`
			}
			enc := json.NewEncoder(out)
			n := 0
			seq, version, err := s.DetectStreamVersion(ctx, table, opts...)
			if err != nil {
				return err
			}
			for v, err := range seq {
				if err != nil {
					return err
				}
				l := line{CFD: v.CFDID, Kind: v.Kind.String(), Tuple: int64(v.TupleID), Attr: v.Attr}
				if v.Kind == detect.SingleTuple {
					pat := v.Pattern
					l.Pattern = &pat
					l.Expected = v.Expected.String()
					l.Got = v.Got.String()
				} else {
					l.Partners = v.Partners
				}
				if err := enc.Encode(l); err != nil {
					return err
				}
				n++
			}
			fmt.Fprintf(out, "# %d violations streamed at version %d\n", n, version)
			return nil
		}
		d, err := s.DetectDigest(ctx, table, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d violations over %d tuples at version %d; %d dirty (max vio %d)\n",
			d.Violations, d.TupleCount, d.Version, d.Dirty, d.MaxVio)
		for _, id := range slices.Sorted(maps.Keys(d.PerCFD)) {
			st := d.PerCFD[id]
			fmt.Fprintf(out, "  %-12s single=%d multi=%d groups=%d\n",
				id, st.SingleTuple, st.MultiTuple, st.Groups)
		}
		return nil

	case "audit":
		a, err := s.Audit(ctx, table)
		if err != nil {
			return err
		}
		fmt.Fprint(out, a.Render())
		return nil

	case "map":
		ex, err := s.Explore(ctx, table)
		if err != nil {
			return err
		}
		entries, hist := ex.QualityMap()
		shades := []string{" ", "░", "▒", "▓", "█"}
		for _, e := range entries {
			fmt.Fprintf(out, "%6d %s vio=%d\n", e.ID, shades[e.Bucket], e.Vio)
		}
		fmt.Fprintf(out, "histogram (clean..dirtiest): %v\n", hist)
		return nil

	case "explore":
		ex, err := s.Explore(ctx, table)
		if err != nil {
			return err
		}
		switch len(cmdArgs) {
		case 1:
			for _, info := range ex.CFDs() {
				fmt.Fprintf(out, "%-12s %-45s patterns=%d violations=%d\n",
					info.ID, info.FD, info.Patterns, info.Violations)
			}
		case 2:
			pats, err := ex.Patterns(cmdArgs[1])
			if err != nil {
				return err
			}
			for _, p := range pats {
				fmt.Fprintf(out, "#%d %-30s matches=%d violations=%d\n",
					p.Index, p.Pattern, p.Matches, p.Violations)
			}
		default:
			var idx int
			if _, err := fmt.Sscanf(cmdArgs[2], "%d", &idx); err != nil {
				return fmt.Errorf("bad pattern index %q", cmdArgs[2])
			}
			groups, err := ex.LHSGroups(cmdArgs[1], idx)
			if err != nil {
				return err
			}
			for _, g := range groups {
				vals := make([]string, len(g.Values))
				for i, v := range g.Values {
					vals[i] = v.String()
				}
				fmt.Fprintf(out, "[%s] tuples=%d rhsValues=%d violations=%d\n",
					strings.Join(vals, ", "), g.Tuples, g.RHSValues, g.Violations)
			}
		}
		return nil

	case "repair":
		res, err := s.Repair(ctx, table)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "candidate repair: %d modifications, cost %.3f, %d passes, converged=%v\n",
			len(res.Modifications), res.Cost, res.Passes, res.Converged)
		for _, m := range res.Modifications {
			fmt.Fprintf(out, "  tuple %d %s: %v -> %v  (%s, %s)\n",
				m.TupleID, m.Attr, m.Old, m.New, m.CFDID, m.Reason)
		}
		if !*apply {
			fmt.Fprintln(out, "run with -apply to commit")
			return nil
		}
		applied, skipped, err := s.ApplyRepair(table, res.Modifications)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "applied %d modifications (%d skipped)\n", applied, len(skipped))
		dst := *outPath
		if dst == "" {
			dst = *dataPath
		}
		w, err := os.Create(dst)
		if err != nil {
			return err
		}
		defer w.Close()
		if err := relstore.WriteCSV(tab, w); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", dst)
		return nil

	case "discover":
		rep, err := s.Discover(ctx, table,
			core.WithMinSupport(*minSupport),
			core.WithMaxLHS(*maxLHS),
			core.WithMinConfidence(*minConfidence),
			core.WithWorkers(*workers))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# %d CFDs discovered from %d tuples at version %d (%d candidate patterns)\n",
			len(rep.CFDs), rep.Tuples, rep.Version, len(rep.Candidates))
		for _, c := range rep.CFDs {
			fmt.Fprintf(out, "%s@ %s\n", c.ID, strings.ReplaceAll(c.String(), "\n", "\n"+c.ID+"@ "))
		}
		if *verbose {
			fmt.Fprintln(out, "# candidates (kind support confidence):")
			for _, c := range rep.Candidates {
				fmt.Fprintf(out, "# %-14s %8d %6.3f  %s\n", c.Kind, c.Support, c.Confidence,
					strings.ReplaceAll(c.CFD.String(), "\n", " "))
			}
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// demo runs the paper's running example end to end on generated data.
func demo(ctx context.Context, s *core.Semandaq, out io.Writer) error {
	ds := datagen.Generate(datagen.Config{Tuples: 1000, Seed: 1, NoiseRate: 0.05})
	s.RegisterTable(ds.Dirty)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		return err
	}
	fmt.Fprintln(out, "== Semandaq demo: 1000 customers, 5% noise, standard CFD set ==")
	d, err := s.DetectDigest(ctx, "customer", core.WithEngine(core.SQLDetection))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detected %d dirty tuples (%d violation records)\n", d.Dirty, d.Violations)
	a, err := s.Audit(ctx, "customer")
	if err != nil {
		return err
	}
	fmt.Fprint(out, a.Render())
	res, err := s.Repair(ctx, "customer")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrepair: %d modifications, converged=%v\n", len(res.Modifications), res.Converged)
	score := ds.ScoreRepairCells(res.Repaired, res.ModifiedCells())
	fmt.Fprintf(out, "repair quality vs ground truth: precision=%.2f recall=%.2f F1=%.2f\n",
		score.Precision(), score.Recall(), score.F1())
	return nil
}
