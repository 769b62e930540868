package repair

import (
	"context"
	"fmt"
	"math"
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

// fuzzAlphabet is cfddef's adversarial alphabet: INT 1 and FLOAT 1.0 are
// Equal but not identical, NaN is a class of its own, NULL is a value like
// any other to a group, and 0x1f is the byte a naive key encoding splits on.
var fuzzAlphabet = []types.Value{
	types.NewInt(1), types.NewFloat(1.0), types.Null, types.NewFloat(math.NaN()),
	types.NewString("a\x1fb"), types.NewString("a"), types.NewString("b"), types.NewInt(2),
}

// repairCase decodes bytes into a table of at most 6 attributes and 64
// rows, 1–3 CFDs over it, every cell and pattern constant drawn from
// fuzzAlphabet, how many of the rows (from the end) form the incremental
// repairer's delta, and whether cells are weighted by tuple. The decoding is
// total: reads past the end yield zero.
func repairCase(data []byte) (tab *relstore.Table, cfds []*cfd.CFD, delta int, weighted bool) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	arity := 2 + next()%5
	attrs := []string{"A", "B", "C", "D", "E", "F"}[:arity]
	for n := 1 + next()%3; len(cfds) < n; {
		rhs := next() % arity
		var lhs []string
		for j := range attrs {
			if j != rhs && next()%2 == 1 {
				lhs = append(lhs, attrs[j])
			}
		}
		if len(lhs) == 0 {
			lhs = append(lhs, attrs[(rhs+1)%arity])
		}
		c := &cfd.CFD{ID: fmt.Sprintf("c%d", len(cfds)), Table: "r", LHS: lhs, RHS: []string{attrs[rhs]}}
		for p := 1 + next()%2; len(c.Tableau) < p; {
			cell := func() cfd.PatternValue {
				if b := next(); b%3 != 0 {
					return cfd.Constant(fuzzAlphabet[b%len(fuzzAlphabet)])
				}
				return cfd.Wild
			}
			pt := cfd.PatternTuple{RHS: []cfd.PatternValue{cell()}}
			for range lhs {
				pt.LHS = append(pt.LHS, cell())
			}
			c.Tableau = append(c.Tableau, pt)
		}
		cfds = append(cfds, c)
	}
	delta, weighted = next()%8, next()%2 == 1
	tab = relstore.NewTable(schema.New("r", attrs...))
	for r := 0; r < 64 && pos+arity <= len(data); r++ {
		row := make(relstore.Tuple, arity)
		for j := range row {
			row[j] = fuzzAlphabet[(next()%(3+j)+j)%len(fuzzAlphabet)]
		}
		tab.MustInsert(row)
	}
	return tab, cfds, delta, weighted
}

// costModel is the default model, or one whose weights differ per tuple and
// attribute.
func costModel(weighted bool) CostModel {
	m := DefaultCostModel()
	if weighted {
		m.Weight = func(id relstore.TupleID, attr string) float64 { return 1 + float64(int(id)%3)/4 + float64(len(attr)) }
	}
	return m
}

// checkBatch requires Repair to equal the row-based reference on tab and
// its result to meet the definitional checks.
func checkBatch(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD, m CostModel) {
	t.Helper()
	ctx := context.Background()
	r := NewRepairer()
	r.Cost = m
	want, werr := refRepair(r, ctx, tab, cfds)
	got, gerr := r.Repair(ctx, tab, cfds)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("error %v, reference %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if err := sameResult(got, want); err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%#v", got.Repaired.Snapshot().Rows()), fmt.Sprintf("%#v", want.Repaired.Snapshot().Rows()); g != w {
		t.Fatalf("repaired tables differ:\n got %s\nwant %s", g, w)
	}
	checkDefinition(t, tab.Snapshot(), cfds, m, got)
}

// checkDefinition holds a batch result to what the repair model says of
// any result: a Converged table satisfies the CFDs by their definition, the
// Cost is the sum of the modifications' costs in order, and each
// modification's Old is the cell's value in the input or after the previous
// modification of that cell.
func checkDefinition(t *testing.T, in *relstore.Snapshot, cfds []*cfd.CFD, m CostModel, res *Result) {
	t.Helper()
	if vio, _ := cfddef.Check(res.Repaired.Snapshot(), cfds); res.Converged && len(vio) != 0 {
		t.Fatalf("converged, but the repaired table violates the CFDs: vio %v", vio)
	}
	sum := 0.0
	cur := map[string]types.Value{}
	for i, mod := range res.Modifications {
		sum += m.Cost(mod.TupleID, mod.Attr, mod.Old, mod.New)
		k := fmt.Sprintf("%d/%d", mod.TupleID, in.Schema().MustPos(mod.Attr))
		v, ok := cur[k]
		if !ok {
			row, _ := in.Get(mod.TupleID)
			v = row[in.Schema().MustPos(mod.Attr)]
		}
		if fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", mod.Old) {
			t.Fatalf("modification %d of tuple %d %s: Old %#v, the cell held %#v", i, mod.TupleID, mod.Attr, mod.Old, v)
		}
		cur[k] = mod.New
	}
	if math.Float64bits(sum) != math.Float64bits(res.Cost) {
		t.Fatalf("Cost %v, the modifications' costs sum to %v", res.Cost, sum)
	}
}

// checkDelta requires RepairDelta to equal the row-based reference when the
// last delta rows of tab arrive through a tracker over the others.
func checkDelta(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD, delta int, m CostModel) {
	t.Helper()
	snap := tab.Snapshot()
	delta = min(delta, snap.Len())
	run := func(repairDelta func(*IncRepairer, *detect.Tracker, *relstore.Table, []*cfd.CFD, []relstore.TupleID) ([]Modification, error)) ([]Modification, string, error) {
		work := relstore.NewTable(snap.Schema())
		for i := 0; i < snap.Len()-delta; i++ {
			work.MustInsert(snap.Row(i))
		}
		tr, err := detect.NewTracker(work, cfds)
		if err != nil {
			return nil, "", err
		}
		var ids []relstore.TupleID
		for i := snap.Len() - delta; i < snap.Len(); i++ {
			id, err := tr.Insert(snap.Row(i))
			if err != nil {
				return nil, "", err
			}
			ids = append(ids, id)
		}
		mods, err := repairDelta(&IncRepairer{Cost: m}, tr, work, cfds, ids)
		return mods, fmt.Sprintf("%#v", work.Snapshot().Rows()), err
	}
	got, gotRows, gerr := run((*IncRepairer).RepairDelta)
	want, wantRows, werr := run(refRepairDelta)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("RepairDelta error %v, reference %v", gerr, werr)
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("RepairDelta modifications differ:\n got %s\nwant %s", g, w)
	}
	if gotRows != wantRows {
		t.Fatalf("RepairDelta tables differ:\n got %s\nwant %s", gotRows, wantRows)
	}
	for _, mod := range got {
		if int(mod.TupleID) < snap.Len()-delta {
			t.Fatalf("RepairDelta modified tuple %d, which is not in the delta", mod.TupleID)
		}
	}
}

// TestRepairMatchesRowReference runs both repairers against the row-based
// reference on generated customer data at three noise rates, the
// incremental one with the last 60 dirty tuples as its delta.
func TestRepairMatchesRowReference(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.1} {
		t.Run(fmt.Sprint("noise=", noise), func(t *testing.T) {
			ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 3, NoiseRate: noise})
			checkBatch(t, ds.Dirty, datagen.StandardCFDs(), DefaultCostModel())
			checkDelta(t, ds.Dirty, datagen.StandardCFDs(), 60, DefaultCostModel())
		})
	}
}

// TestRepairMatchesReferenceOnAdversarialValues runs the fuzz seeds as a
// plain test.
func TestRepairMatchesReferenceOnAdversarialValues(t *testing.T) {
	for _, seed := range repairSeeds {
		tab, cfds, delta, weighted := repairCase(seed)
		checkBatch(t, tab, cfds, costModel(weighted))
		checkDelta(t, tab, cfds, delta, costModel(weighted))
	}
}

// TestRepairMatchesReferenceOnOscillations holds both repairers to the
// reference where constraints tug one cell back and forth, so the
// arbitration breaks a membership: two FDs that share the RHS attribute CITY
// (the victim, last, has Edinburgh's zip and London's area code), and two
// that tug B 2–2 each way.
func TestRepairMatchesReferenceOnOscillations(t *testing.T) {
	for _, c := range []struct {
		attrs, rules string
		rows         [][]string
	}{
		{"CNT CITY ZIP AC", "[CNT=_, ZIP=_] -> [CITY=_]\n[CNT=_, AC=_] -> [CITY=_]", [][]string{
			{"UK", "Edinburgh", "EH2", "131"}, {"UK", "Edinburgh", "EH2", "131"},
			{"UK", "London", "SW1", "20"}, {"UK", "London", "SW1", "20"}, {"UK", "London", "SW1", "20"},
			{"UK", "Edinburgh", "EH2", "20"}}},
		{"A B C", "[A=_] -> [B=_]\n[C=_] -> [B=_]", [][]string{
			{"a1", "x", "c1"}, {"a1", "x", "c2"}, {"a1", "y", "c2"}, {"a2", "y", "c2"}}},
	} {
		tab := relstore.NewTable(schema.New("r", strings.Fields(c.attrs)...))
		for _, r := range c.rows {
			row := make(relstore.Tuple, len(r))
			for i, s := range r {
				row[i] = types.Parse(s)
			}
			tab.MustInsert(row)
		}
		cfds, err := cfd.ParseSet(strings.ReplaceAll("r: "+c.rules, "\n", "\nr: "))
		if err != nil {
			t.Fatal(err)
		}
		for _, weighted := range []bool{false, true} {
			checkBatch(t, tab, cfds, costModel(weighted))
			for delta := 1; delta <= 2; delta++ {
				checkDelta(t, tab, cfds, delta, costModel(weighted))
			}
		}
	}
}

// repairSeeds are FuzzRepairReference's hand-written seeds.
var repairSeeds = [][]byte{
	{0, 0, 1, 1, 1, 4, 1, 0, 3, 1, 1, 0, 1, 3, 2, 0, 1, 0, 2, 1, 1, 0, 0, 3, 1, 1, 2, 2, 0, 0},
	{1, 1, 0, 1, 0, 2, 1, 0, 7, 2, 2, 5, 0, 1, 1, 0, 5, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1},
	{4, 2, 5, 1, 0, 1, 0, 1, 0, 4, 5, 0, 3, 2, 1, 0, 1, 1, 1, 0, 1, 6, 2, 3, 4, 4, 4, 7, 1, 0, 0, 0, 0, 0, 0,
		1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1},
	{0, 1, 1, 0, 0, 3, 0, 3, 2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 2, 1, 0, 2, 1, 1, 0, 0, 3, 0, 1, 1, 2, 0, 2, 1},
}

// FuzzRepairReference requires the code-level batch and incremental
// repairers to equal the row-based reference on small tables over the
// adversarial alphabet, and the batch result to meet the definitional
// checks.
func FuzzRepairReference(f *testing.F) {
	for _, seed := range repairSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, cfds, delta, weighted := repairCase(data)
		checkBatch(t, tab, cfds, costModel(weighted))
		checkDelta(t, tab, cfds, delta, costModel(weighted))
	})
}
