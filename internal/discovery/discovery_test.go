package discovery

import (
	"context"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func mkTable(t *testing.T, attrs []string, data [][]string) *relstore.Table {
	t.Helper()
	tab := relstore.NewTable(schema.New("r", attrs...))
	for _, r := range data {
		row := make(relstore.Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	return tab
}

// minedOfKind runs the lattice miner and keeps the candidates of the given
// kinds, as single-pattern CFDs.
func minedOfKind(t *testing.T, tab *relstore.Table, opts Options, kinds ...string) []*cfd.CFD {
	t.Helper()
	rep, err := Mine(context.Background(), tab.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []*cfd.CFD
	for _, c := range rep.Candidates {
		if slices.Contains(kinds, c.Kind) {
			out = append(out, c.CFD)
		}
	}
	return out
}

func TestMineConstantRules(t *testing.T) {
	// CC=44 always comes with CNT=UK; CC=1 with CNT=US.
	tab := mkTable(t, []string{"CC", "CNT", "CITY"}, [][]string{
		{"44", "UK", "Edinburgh"},
		{"44", "UK", "London"},
		{"44", "UK", "London"},
		{"1", "US", "NYC"},
		{"1", "US", "Chicago"},
		{"1", "US", "NYC"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 2, MaxLHS: 1}, "constant")
	var found44, found1 bool
	for _, c := range cfds {
		s := c.String()
		if strings.Contains(s, "[CC=44] -> [CNT=UK]") {
			found44 = true
		}
		if strings.Contains(s, "[CC=1] -> [CNT=US]") {
			found1 = true
		}
	}
	if !found44 || !found1 {
		t.Errorf("missing constant CFDs; got:\n%s", render(cfds))
	}
}

func TestMineConstantMinimality(t *testing.T) {
	// CC=44 -> CNT=UK holds; therefore (CC=44, CITY=x) -> CNT=UK is
	// redundant and must not be emitted.
	tab := mkTable(t, []string{"CC", "CITY", "CNT"}, [][]string{
		{"44", "Edinburgh", "UK"},
		{"44", "Edinburgh", "UK"},
		{"44", "London", "UK"},
		{"44", "London", "UK"},
		{"1", "NYC", "US"},
		{"1", "NYC", "US"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 2, MaxLHS: 2}, "constant")
	for _, c := range cfds {
		if len(c.LHS) == 2 && c.RHS[0] == "CNT" {
			hasCC := false
			for _, a := range c.LHS {
				if a == "CC" {
					hasCC = true
				}
			}
			if hasCC {
				t.Errorf("non-minimal rule emitted: %s", c)
			}
		}
	}
}

func TestMineConstantSupportThreshold(t *testing.T) {
	tab := mkTable(t, []string{"A", "B"}, [][]string{
		{"x", "1"},
		{"y", "2"}, {"y", "2"}, {"y", "2"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 3, MaxLHS: 1}, "constant")
	for _, c := range cfds {
		if strings.Contains(c.String(), "A=x") {
			t.Errorf("low-support rule emitted: %s", c)
		}
	}
}

func TestMineVariableGlobalFD(t *testing.T) {
	// ZIP -> CITY holds globally.
	tab := mkTable(t, []string{"ZIP", "CITY", "STR"}, [][]string{
		{"z1", "Edinburgh", "a"},
		{"z1", "Edinburgh", "b"},
		{"z2", "London", "c"},
		{"z2", "London", "d"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 2, MaxLHS: 1}, "global-fd", "conditional-fd")
	found := false
	for _, c := range cfds {
		if len(c.LHS) == 1 && c.LHS[0] == "ZIP" && c.RHS[0] == "CITY" &&
			c.Tableau[0].LHS[0].Wildcard {
			found = true
		}
	}
	if !found {
		t.Errorf("global FD not found; got:\n%s", render(cfds))
	}
}

func TestMineVariableConditionalFD(t *testing.T) {
	// ZIP -> STR holds only where CNT=UK (the paper's φ2 shape).
	tab := mkTable(t, []string{"CNT", "ZIP", "STR"}, [][]string{
		{"UK", "z1", "May"}, {"UK", "z1", "May"},
		{"UK", "z2", "Cri"}, {"UK", "z2", "Cri"},
		{"US", "z3", "a"}, {"US", "z3", "b"}, // violates in US
		{"US", "z4", "c"}, {"US", "z4", "d"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 2, MaxLHS: 2}, "global-fd", "conditional-fd")
	found := false
	for _, c := range cfds {
		s := c.String()
		if strings.Contains(s, "CNT=UK") && strings.Contains(s, "-> [STR=_]") {
			found = true
		}
	}
	if !found {
		t.Errorf("conditional FD not found; got:\n%s", render(cfds))
	}
}

func TestMineVariableMinimality(t *testing.T) {
	// A -> B holds globally; {A, C} -> B must be pruned.
	tab := mkTable(t, []string{"A", "B", "C"}, [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b1", "c2"},
		{"a2", "b2", "c1"},
		{"a2", "b2", "c2"},
	})
	cfds := minedOfKind(t, tab, Options{MinSupport: 2, MaxLHS: 2}, "global-fd", "conditional-fd")
	for _, c := range cfds {
		if c.RHS[0] == "B" && len(c.LHS) == 2 {
			for _, a := range c.LHS {
				if a == "A" {
					t.Errorf("non-minimal FD emitted: %s", c)
				}
			}
		}
	}
}

func TestDiscoverOnGeneratedData(t *testing.T) {
	// The miner must rediscover the ground-truth rules the generator bakes
	// in: CC -> CNT constants and the zip/street/city dependencies.
	ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 9})
	rep, err := Mine(context.Background(), ds.Clean.Snapshot(), Options{MinSupport: 20, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfds := rep.CFDs
	if len(cfds) == 0 {
		t.Fatal("nothing discovered")
	}
	if rep.Version != ds.Clean.Version() {
		t.Errorf("Report.Version = %d, want table version %d", rep.Version, ds.Clean.Version())
	}
	if rep.Tuples != 600 {
		t.Errorf("Report.Tuples = %d", rep.Tuples)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates recorded")
	}
	for _, c := range rep.Candidates {
		if c.Support <= 0 || c.Confidence != 1.0 || c.CFD == nil || c.Kind == "" {
			t.Fatalf("bad candidate %+v", c)
		}
	}
	all := render(cfds)
	for _, want := range []string{
		"[CC=44] -> [CNT=UK]",
		"[CC=1] -> [CNT=US]",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in:\n%s", want, all)
		}
	}
	// Every discovered CFD must actually hold on the clean data.
	det, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), ds.Clean, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Violations) != 0 {
		t.Errorf("discovered CFDs violated on their own reference data: %d", len(det.Violations))
	}
	// Discovered CFDs catch injected errors on dirty data.
	dirty := datagen.Generate(datagen.Config{Tuples: 600, Seed: 9, NoiseRate: 0.05})
	det, err = detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), dirty.Dirty, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Vio) == 0 {
		t.Error("discovered CFDs catch nothing on dirty data")
	}
}

func TestDiscoverAssignsIDs(t *testing.T) {
	tab := mkTable(t, []string{"A", "B"}, [][]string{
		{"x", "1"}, {"x", "1"}, {"y", "2"}, {"y", "2"},
	})
	rep, err := Mine(context.Background(), tab.Snapshot(), Options{MinSupport: 2, MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.CFDs {
		if c.ID == "" {
			t.Errorf("CFD %d has no ID", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(1000)
	if o.MinSupport != 10 || o.MaxLHS != 2 || o.MaxPatternsPerFD != 8 ||
		o.MinConfidence != 1.0 || o.Workers < 1 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{}.withDefaults(50)
	if o.MinSupport != 2 {
		t.Errorf("small-n support = %d", o.MinSupport)
	}
}

func TestOptionsExplicitValuesWin(t *testing.T) {
	// The defaulting rule replaces only non-positive fields: an explicit
	// MinSupport of 1 must never be clamped to the max(2, N/100) default.
	o := Options{MinSupport: 1, MaxLHS: 5, MaxPatternsPerFD: 3, MinConfidence: 0.9}.withDefaults(100000)
	if o.MinSupport != 1 {
		t.Errorf("explicit MinSupport=1 was clamped to %d", o.MinSupport)
	}
	if o.MaxLHS != 5 || o.MaxPatternsPerFD != 3 || o.MinConfidence != 0.9 {
		t.Errorf("explicit values overridden: %+v", o)
	}
}

func TestMineMinSupportOneIsHonored(t *testing.T) {
	// With MinSupport 1 even a value covering a single tuple conditions a
	// rule; with the default (max(2, N/100)) it cannot.
	tab := mkTable(t, []string{"A", "B"}, [][]string{
		{"solo", "1"},
		{"x", "2"}, {"x", "2"}, {"x", "2"},
		{"y", "3"}, {"y", "3"},
	})
	rep, err := Mine(context.Background(), tab.Snapshot(), Options{MinSupport: 1, MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range rep.CFDs {
		if strings.Contains(c.String(), "A=solo") {
			found = true
		}
	}
	if !found {
		t.Errorf("MinSupport=1 did not admit the singleton cover; got:\n%s", render(rep.CFDs))
	}
	if rep.Options.MinSupport != 1 {
		t.Errorf("resolved MinSupport = %d, want 1", rep.Options.MinSupport)
	}
}

func TestMineDeterministicAcrossWorkers(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 500, Seed: 3})
	var base string
	for _, workers := range []int{1, 2, 8} {
		rep, err := Mine(context.Background(), ds.Clean.Snapshot(),
			Options{MinSupport: 10, MaxLHS: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(rep.CFDs); base == "" {
			base = got
		} else if got != base {
			t.Errorf("workers=%d changed the output:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

func TestMinePreCancelled(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 500, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Mine(ctx, ds.Clean.Snapshot(), Options{}); err != context.Canceled {
		t.Errorf("pre-cancelled Mine returned %v, want context.Canceled", err)
	}
}

func TestMineApproximateConfidence(t *testing.T) {
	// A -> B holds on 9 of 10 tuples in the a1 class (plus a clean a2
	// class): global confidence = 11/12. MinConfidence 0.9 admits it as an
	// approximate FD; the default (exact) does not.
	rows := [][]string{}
	for i := 0; i < 9; i++ {
		rows = append(rows, []string{"a1", "b1"})
	}
	rows = append(rows, []string{"a1", "OOPS"})
	rows = append(rows, []string{"a2", "b2"}, []string{"a2", "b2"})
	tab := mkTable(t, []string{"A", "B"}, rows)

	exact, err := Mine(context.Background(), tab.Snapshot(), Options{MinSupport: 2, MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range exact.Candidates {
		if c.Kind == "global-fd" && c.CFD.LHS[0] == "A" && c.CFD.RHS[0] == "B" {
			t.Errorf("exact mining admitted a broken FD: %s", c.CFD)
		}
	}

	approx, err := Mine(context.Background(), tab.Snapshot(),
		Options{MinSupport: 2, MaxLHS: 1, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range approx.Candidates {
		if c.Kind == "global-fd" && c.CFD.LHS[0] == "A" && c.CFD.RHS[0] == "B" {
			found = true
			want := 11.0 / 12.0
			if c.Confidence < want-1e-9 || c.Confidence > want+1e-9 {
				t.Errorf("confidence = %v, want %v", c.Confidence, want)
			}
		}
	}
	if !found {
		t.Error("approximate FD A -> B not admitted at MinConfidence 0.9")
	}
}

func render(cfds []*cfd.CFD) string {
	var b strings.Builder
	for _, c := range cfds {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFrequentClassesSortedByKey: the miner enumerates a column's classes
// that clear MinSupport, NULL's excepted, in Key order, whatever order
// their first rows put them in.
func TestFrequentClassesSortedByKey(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A"))
	for _, s := range []string{"zz", "aa", "", "mm", "aa", "", "zz", "mm", "b", ""} {
		v := types.Null
		if s != "" {
			v = types.NewString(s)
		}
		tab.MustInsert(relstore.Tuple{v})
	}
	col := tab.Snapshot().Columnar().Col(0)
	for minSupport, want := range map[int]string{1: "aa b mm zz", 2: "aa mm zz", 3: ""} {
		var got []string
		for _, cl := range frequentClasses(col, minSupport) {
			got = append(got, col.PLIClassValue(cl).String())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("MinSupport %d: classes %q, want %q", minSupport, got, want)
		}
	}
}
