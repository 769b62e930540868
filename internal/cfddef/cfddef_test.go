package cfddef_test

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/cfddef"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestSharesNothingWithWhatItChecks pins the package's independence: it may
// import the value model, the CFD syntax tree and the row store's accessors,
// and nothing that groups, keys or partitions — no detect, discovery or
// sqleng, no Value.Key(), no dictionary/PLI method.
func TestSharesNothingWithWhatItChecks(t *testing.T) {
	allowed := map[string]bool{ // of this module; the standard library is free
		"semandaq/internal/cfd": true, "semandaq/internal/relstore": true,
		"semandaq/internal/schema": true, "semandaq/internal/types": true,
	}
	banned := regexp.MustCompile(`\.(Key|KeyOn|AppendGroupKey|Columnar|Col|PLI\w*|EqProbe|EqCode\w*|Code|ClassRows)\(`)
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) < 2 {
		t.Fatalf("package sources not found: %v %v", files, err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "semandaq/") && !allowed[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
		if m := banned.Find(src); m != nil {
			t.Errorf("%s calls %s — a key encoder or a dictionary/partition method", name, m)
		}
	}
}

// adversarialTable fills a 4-column table from small alphabets that hold the
// value model's corners: INT 1 and FLOAT 1.0 (Equal, not identical), NaN,
// NULL on both sides of a dependency.
func adversarialTable(rng *rand.Rand, name string, n int) *relstore.Table {
	domain := [][]types.Value{
		{types.NewString("k0"), types.NewString("k1"), types.NewString("k2"), types.Null},
		{types.NewString("v0"), types.NewInt(1), types.NewFloat(1.0), types.NewFloat(math.NaN()), types.Null},
		{types.NewString("good"), types.NewString("bad"), types.Null},
		{types.NewInt(1), types.NewInt(2), types.NewFloat(2.0), types.NewString("x")},
	}
	tab := relstore.NewTable(schema.New(name, "K", "V", "W", "Z"))
	for i := 0; i < n; i++ {
		row := make(relstore.Tuple, len(domain))
		for j, d := range domain {
			row[j] = d[rng.Intn(len(d))]
		}
		tab.MustInsert(row)
	}
	return tab
}

// adversarialCFDs covers every shape Check distinguishes: a plain FD, a
// constant rule, a two-attribute RHS (normalized into two CFDs), two CFDs
// over one embedded FD (merged into one tableau, counted once), numeric and
// NaN pattern constants, and a pattern no row matches.
func adversarialCFDs(t testing.TB, table string) []*cfd.CFD {
	t.Helper()
	cfds, err := cfd.ParseSet(fmt.Sprintf(`
fd@ %[1]s: [K=_] -> [V=_]
c1@ %[1]s: [K=k0] -> [W=good]
two@ %[1]s: [K=_, Z=_] -> [V=_, W=_]
m1@ %[1]s: [V=1] -> [W=good]
m2@ %[1]s: [V=_] -> [W=_]
m3@ %[1]s: [V=NaN] -> [W=bad]
z@ %[1]s: [Z=2, W=_] -> [K=_]
none@ %[1]s: [K=absent] -> [Z=7]
`, table))
	if err != nil {
		t.Fatal(err)
	}
	return cfds
}

// want is the definitional verdict one snapshot's readers are held to.
type want struct {
	vio map[relstore.TupleID]int
	per map[string]cfddef.Counts
}

func define(t testing.TB, snap *relstore.Snapshot, cfds []*cfd.CFD) want {
	t.Helper()
	vio, per := cfddef.Check(snap, cfds)
	return want{vio, per}
}

func (w want) checkStats(t testing.TB, who string, got map[string]*detect.CFDStats) {
	t.Helper()
	if len(got) != len(w.per) {
		t.Errorf("%s: %d per-CFD entries, definition has %d", who, len(got), len(w.per))
	}
	for id, n := range w.per {
		if st := got[id]; st == nil || cfddef.Counts(*st) != n {
			t.Errorf("%s: CFD %s stats %+v, definition %+v", who, id, st, n)
		}
	}
}

func (w want) checkReport(t testing.TB, who string, rep *detect.Report) {
	t.Helper()
	if !reflect.DeepEqual(rep.Vio, w.vio) {
		t.Errorf("%s: vio(t) differs from the definition:\n got  %v\n want %v", who, rep.Vio, w.vio)
	}
	w.checkStats(t, who, rep.PerCFD)
}

func (w want) checkDigest(t testing.TB, who string, d *detect.Digest) {
	t.Helper()
	got := map[relstore.TupleID]int{}
	for i, id := range d.IDs {
		if d.Vio[i] != 0 {
			got[id] = int(d.Vio[i])
		}
	}
	if !reflect.DeepEqual(got, w.vio) || d.Dirty != len(w.vio) {
		t.Errorf("%s: digest vio(t) differs from the definition (dirty %d):\n got  %v\n want %v", who, d.Dirty, got, w.vio)
	}
	w.checkStats(t, who, d.PerCFD)
}

// checkEveryReader holds every engine's flat report and factorised wire
// digest over tab's current snapshot to the definition, and returns it.
func checkEveryReader(t testing.TB, tab *relstore.Table, cfds []*cfd.CFD) want {
	t.Helper()
	ctx := context.Background()
	snap := tab.Snapshot()
	w := define(t, snap, cfds)
	store := relstore.NewStore()
	store.Put(tab)
	for _, kind := range detect.EngineKinds() {
		det, err := detect.NewDetector(kind, detect.Config{Workers: 3, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := det.DetectSnapshot(ctx, snap, cfds)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		w.checkReport(t, kind.String(), rep)
		fr, err := det.DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		w.checkDigest(t, kind.String()+" wire digest", fr.Digest())
	}
	return w
}

// TestVioByDefinition runs the paper's vio(t), computed pair by pair, against
// everything that reports it: the four engines and the wire digest on a
// batch-built snapshot; the tracker after incremental edits; the patched
// snapshot those edits leave; and both sides of a Clone() fork that then
// diverge.
func TestVioByDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name string
		tab  *relstore.Table
		cfds []*cfd.CFD
	}{
		{"generated", datagen.Generate(datagen.Config{Tuples: 200, Seed: 8, NoiseRate: 0.1}).Dirty, datagen.StandardCFDs()},
		{"adversarial", adversarialTable(rng, "adv", 120), adversarialCFDs(t, "adv")},
		{"adversarial-small", adversarialTable(rng, "adv", 9), adversarialCFDs(t, "adv")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, cfds := tc.tab, tc.cfds
			if w := checkEveryReader(t, tab, cfds); len(w.vio) == 0 {
				t.Fatal("no violation on the table; the check is vacuous")
			}
			// Incremental edits: the tracker's report and the patched snapshot
			// (the columnar view was built above, so these edits patch it).
			tr, err := detect.NewTracker(tab, cfds)
			if err != nil {
				t.Fatal(err)
			}
			ids, arity := tab.Snapshot().IDs(), tab.Schema().Arity()
			for i := 0; i < 24; i++ {
				src, _ := tab.Get(ids[rng.Intn(len(ids))])
				pos := rng.Intn(arity)
				if err := tr.SetCell(ids[rng.Intn(len(ids))], tab.Schema().Attrs[pos].Name, src[pos]); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Delete(ids[0]); err != nil {
				t.Fatal(err)
			}
			w := checkEveryReader(t, tab, cfds)
			w.checkReport(t, "tracker", tr.Report())
			// A fork borrows the source's columns; each side then edits its own.
			fork := tab.Clone()
			for i, side := range []*relstore.Table{tab, fork, tab, fork} {
				src, _ := side.Get(ids[1+rng.Intn(len(ids)-1)])
				if _, err := side.SetCell(ids[1+i], i%arity, src[i%arity]); err != nil {
					t.Fatal(err)
				}
			}
			checkEveryReader(t, tab, cfds)
			checkEveryReader(t, fork, cfds)
		})
	}
}

// TestVioMetamorphic checks two relations no comparison between engines can
// see, because every engine shares the scan order and the value encoding:
// permuting the rows leaves each tuple's vio(t) unchanged, and so does
// renaming the values injectively (class by class, NULL fixed, the CFDs'
// constants renamed along) — the second also shows that nothing observable
// depends on how a value is keyed or numbered.
func TestVioMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tab := adversarialTable(rng, "adv", 150)
	cfds := adversarialCFDs(t, "adv")
	base := checkEveryReader(t, tab, cfds)
	ids, rows := tab.Snapshot().IDs(), tab.Snapshot().Rows()

	// Row permutation: tuple perm[i] of the new table is row i of the old.
	permuted := relstore.NewTable(tab.Schema())
	back := map[relstore.TupleID]relstore.TupleID{}
	for _, i := range rng.Perm(len(rows)) {
		back[permuted.MustInsert(rows[i])] = ids[i]
	}
	got := map[relstore.TupleID]int{}
	for id, n := range checkEveryReader(t, permuted, cfds).vio {
		got[back[id]] = n
	}
	if !reflect.DeepEqual(got, base.vio) {
		t.Errorf("row permutation changed vio(t):\n got  %v\n want %v", got, base.vio)
	}

	// Value renaming: every Equal-class becomes a fresh string.
	var classes []types.Value
	rename := func(v types.Value) types.Value {
		if v.IsNull() {
			return v
		}
		for i, c := range classes {
			if c.Equal(v) {
				return types.NewString(fmt.Sprintf("r%d", i))
			}
		}
		classes = append(classes, v)
		return types.NewString(fmt.Sprintf("r%d", len(classes)-1))
	}
	renamed := relstore.NewTable(tab.Schema())
	for _, row := range rows {
		out := make(relstore.Tuple, len(row))
		for j, v := range row {
			out[j] = rename(v)
		}
		renamed.MustInsert(out) // same insertion order, so the same tuple ids
	}
	var renamedCFDs []*cfd.CFD
	for _, c := range cfds {
		c = c.Clone()
		for _, pt := range c.Tableau {
			for _, cells := range [][]cfd.PatternValue{pt.LHS, pt.RHS} {
				for k := range cells {
					if !cells[k].Wildcard {
						cells[k] = cfd.Constant(rename(cells[k].Const))
					}
				}
			}
		}
		renamedCFDs = append(renamedCFDs, c)
	}
	if w := checkEveryReader(t, renamed, renamedCFDs); !reflect.DeepEqual(w.vio, base.vio) || !reflect.DeepEqual(w.per, base.per) {
		t.Errorf("value renaming changed the result:\n got  %v %v\n want %v %v", w.vio, w.per, base.vio, base.per)
	}
}

// TestQuotedWildcardConstant: the constant '_' is a value like any other to
// the definition and to the engines that read patterns directly; the tableau
// relation stores the wildcard as that very string, so the SQL engine — which
// used to read the constant back as "any A" and report the q row — refuses
// the CFD, naming it and the attribute.
func TestQuotedWildcardConstant(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewString("_"), types.NewString("x")})
	tab.MustInsert(relstore.Tuple{types.NewString("q"), types.NewString("y")})
	cfds, err := cfd.ParseSet("c1@ r: [A='_'] -> [B=x]")
	if err != nil {
		t.Fatal(err)
	}
	if p := cfds[0].Tableau[0].LHS[0]; p.Wildcard || !p.Const.Equal(types.NewString("_")) {
		t.Fatalf("the quoted '_' parsed as %+v, want the constant", p)
	}
	snap := tab.Snapshot()
	w := define(t, snap, cfds)
	if len(w.vio) != 0 {
		t.Fatalf("definition: vio = %v, want none (only the '_' row matches, and it has B = x)", w.vio)
	}
	store := relstore.NewStore()
	store.Put(tab)
	for _, kind := range detect.EngineKinds() {
		det, err := detect.NewDetector(kind, detect.Config{Workers: 2, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := det.DetectSnapshot(context.Background(), snap, cfds)
		if kind == detect.SQLEngine {
			if err == nil || !strings.Contains(err.Error(), "c1") || !strings.Contains(err.Error(), " A ") {
				t.Errorf("sql: report %v, err %v; want a refusal naming c1 and A", rep, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		w.checkReport(t, kind.String(), rep)
	}
}
