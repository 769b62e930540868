package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const testCSV = `NAME,CNT,CITY,ZIP,STR,CC,AC
Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Nora,UK,Edinburgh,EH2 4SD,Mayfeild,44,131
Joe,US,New York,01202,Mtn Ave,44,908
`

const testCFDs = `
customer: [CNT=UK, ZIP=_] -> [STR=_]
customer: [CC=44] -> [CNT=UK]
`

// writeFixture writes the CSV and CFD files into a temp dir.
func writeFixture(t *testing.T) (csvPath, cfdPath string) {
	t.Helper()
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "customer.csv")
	cfdPath = filepath.Join(dir, "rules.cfd")
	if err := os.WriteFile(csvPath, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfdPath, []byte(testCFDs), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, cfdPath
}

// runCLI invokes the command and returns its output.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

func TestCLIDetect(t *testing.T) {
	csv, cfds := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "detect")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loaded customer: 4 tuples", "registered 2 CFDs", "4 dirty"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The native alias (columnar) and the parallel engine agree.
	for _, engine := range []string{"native", "parallel"} {
		out2, err := runCLI(t, "-data", csv, "-cfds", cfds, "-engine", engine, "detect")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out2, "4 dirty") {
			t.Errorf("%s out:\n%s", engine, out2)
		}
	}
	// Explicit worker count.
	out3, err := runCLI(t, "-data", csv, "-cfds", cfds, "-engine", "parallel", "-workers", "2", "detect")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "4 dirty") {
		t.Errorf("parallel -workers 2 out:\n%s", out3)
	}
	// Unknown engine fails.
	if _, err := runCLI(t, "-data", csv, "-cfds", cfds, "-engine", "warp", "detect"); err == nil {
		t.Error("unknown engine should fail")
	}
}

// TestCLIDetectPerCFDOrder: detect prints one line per CFD, in CFD id
// order, so ten runs on one input print the same bytes.
func TestCLIDetectPerCFDOrder(t *testing.T) {
	csv, _ := writeFixture(t)
	cfds := filepath.Join(t.TempDir(), "four.cfd")
	rules := testCFDs + "customer: [CC=44, AC=131] -> [CITY=Edinburgh]\ncustomer: [ZIP=_] -> [CITY=_]\n"
	if err := os.WriteFile(cfds, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := runCLI(t, "-data", csv, "-cfds", cfds, "detect")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "phi") {
			ids = append(ids, f[0])
		}
	}
	if !slices.Equal(ids, []string{"phi1", "phi2", "phi3", "phi4"}) {
		t.Fatalf("per-CFD lines name %v, want phi1..phi4 in order:\n%s", ids, first)
	}
	for i := 1; i < 10; i++ {
		out, err := runCLI(t, "-data", csv, "-cfds", cfds, "detect")
		if err != nil {
			t.Fatal(err)
		}
		if out != first {
			t.Fatalf("run %d printed\n%s\nafter run 0 printed\n%s", i, out, first)
		}
	}
}

func TestCLICheckAndSQL(t *testing.T) {
	csv, cfds := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "satisfiable") {
		t.Errorf("out:\n%s", out)
	}
	out, err = runCLI(t, "-data", csv, "-cfds", cfds, "sql")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SELECT") || !strings.Contains(out, "GROUP BY") {
		t.Errorf("sql out:\n%s", out)
	}
}

func TestCLIAuditAndMapAndExplore(t *testing.T) {
	csv, cfds := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "audit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Data quality report") {
		t.Errorf("audit out:\n%s", out)
	}
	out, err = runCLI(t, "-data", csv, "-cfds", cfds, "map")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "histogram") {
		t.Errorf("map out:\n%s", out)
	}
	out, err = runCLI(t, "-data", csv, "-cfds", cfds, "explore")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "phi1") {
		t.Errorf("explore out:\n%s", out)
	}
	out, err = runCLI(t, "-data", csv, "-cfds", cfds, "explore", "phi1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "matches=") {
		t.Errorf("explore phi1 out:\n%s", out)
	}
	out, err = runCLI(t, "-data", csv, "-cfds", cfds, "explore", "phi1", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tuples=") {
		t.Errorf("explore phi1 0 out:\n%s", out)
	}
}

func TestCLIRepairApplyWritesCSV(t *testing.T) {
	csv, cfds := writeFixture(t)
	outPath := filepath.Join(t.TempDir(), "repaired.csv")
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "-apply", "-o", outPath, "repair")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "applied") || !strings.Contains(out, "wrote "+outPath) {
		t.Errorf("repair out:\n%s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "Mayfeild") {
		t.Error("typo street survived the repair")
	}
	// Re-running detect on the repaired CSV shows zero dirt.
	out, err = runCLI(t, "-data", outPath, "-table", "customer", "-cfds", cfds, "detect")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 dirty") {
		t.Errorf("post-repair detect:\n%s", out)
	}
}

func TestCLIRepairWithoutApply(t *testing.T) {
	csv, cfds := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "repair")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "run with -apply to commit") {
		t.Errorf("out:\n%s", out)
	}
	// The source file must be untouched.
	data, _ := os.ReadFile(csv)
	if !strings.Contains(string(data), "Mayfeild") {
		t.Error("repair without -apply modified the data file")
	}
}

func TestCLIDiscover(t *testing.T) {
	csv, _ := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-minsupport", "2", "discover")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CFDs discovered") {
		t.Errorf("out:\n%s", out)
	}
	// The mined snapshot's version and tuple count are surfaced.
	if !strings.Contains(out, "at version") || !strings.Contains(out, "tuples") {
		t.Errorf("missing version stamp in:\n%s", out)
	}
}

func TestCLIDiscoverVerboseCandidates(t *testing.T) {
	csv, _ := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-minsupport", "2", "-minconfidence", "0.8", "-v", "discover")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "candidates (kind support confidence):") {
		t.Errorf("missing candidate listing in:\n%s", out)
	}
}

func TestCLIDemo(t *testing.T) {
	out, err := runCLI(t, "demo")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "detected", "repair quality", "precision"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	csv, cfds := writeFixture(t)
	cases := [][]string{
		{},                       // missing command
		{"detect"},               // missing -data
		{"-data", csv, "detect"}, // missing -cfds
		{"-data", "/nope.csv", "-cfds", cfds, "detect"},
		{"-data", csv, "-cfds", "/nope.cfd", "detect"},
		{"-data", csv, "-cfds", cfds, "warp"}, // unknown command
		{"-data", csv, "-cfds", cfds, "explore", "phi1", "xx"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCLIDetectStream(t *testing.T) {
	csv, cfds := writeFixture(t)
	out, err := runCLI(t, "-data", csv, "-cfds", cfds, "-stream", "detect")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "violations streamed") {
		t.Errorf("missing stream summary in:\n%s", out)
	}
	if !strings.Contains(out, `"cfd"`) {
		t.Errorf("no NDJSON violation lines in:\n%s", out)
	}
}

func TestCLITimeoutCancelsDetect(t *testing.T) {
	csv, cfds := writeFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-data", csv, "-cfds", cfds, "detect"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}
