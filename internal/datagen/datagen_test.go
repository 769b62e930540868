package datagen

import (
	"context"
	"testing"

	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
)

func TestCleanDataSatisfiesStandardCFDs(t *testing.T) {
	ds := Generate(Config{Tuples: 2000, Seed: 1})
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), ds.Clean, StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean data has %d violations; first: %+v",
			len(rep.Violations), rep.Violations[0])
	}
}

// TestCleanDataSatisfiesCFDsAtLargeZipPools is a regression test for zip
// collisions across cities: with ZipsPerCity > 1000 the old US zip scheme
// overlapped neighbouring cities' ranges, silently breaking phi1 on
// "clean" data.
func TestCleanDataSatisfiesCFDsAtLargeZipPools(t *testing.T) {
	ds := Generate(Config{Tuples: 6000, Seed: 2, ZipsPerCity: 1500})
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), ds.Clean, StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean data with a large zip pool has %d violations; first: %+v",
			len(rep.Violations), rep.Violations[0])
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Tuples: 500, Seed: 42, NoiseRate: 0.05})
	b := Generate(Config{Tuples: 500, Seed: 42, NoiseRate: 0.05})
	ra := a.Dirty.Snapshot().Rows()
	rb := b.Dirty.Snapshot().Rows()
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, ra[i], rb[i])
		}
	}
	if len(a.Corruptions) != len(b.Corruptions) {
		t.Error("corruption lists differ")
	}
	c := Generate(Config{Tuples: 500, Seed: 43, NoiseRate: 0.05})
	rc := c.Dirty.Snapshot().Rows()
	same := true
	for i := range ra {
		if !ra[i].Equal(rc[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestNoiseRateHonored(t *testing.T) {
	ds := Generate(Config{Tuples: 1000, Seed: 7, NoiseRate: 0.05})
	if got := len(ds.Corruptions); got != 50 {
		t.Errorf("corruptions = %d, want 50", got)
	}
	// Every corruption actually changed the cell.
	sc := ds.Dirty.Schema()
	for _, c := range ds.Corruptions {
		row, ok := ds.Dirty.Get(c.TupleID)
		if !ok {
			t.Fatalf("corrupted tuple %d missing", c.TupleID)
		}
		pos := sc.MustPos(c.Attr)
		if !row[pos].Equal(c.Dirty) {
			t.Errorf("tuple %d attr %s = %v, want %v", c.TupleID, c.Attr, row[pos], c.Dirty)
		}
		if c.Clean.Equal(c.Dirty) {
			t.Errorf("corruption %+v is a no-op", c)
		}
		clean, _ := ds.Clean.Get(c.TupleID)
		if !clean[pos].Equal(c.Clean) {
			t.Errorf("clean value mismatch for %+v", c)
		}
	}
}

func TestDirtyDataHasViolations(t *testing.T) {
	ds := Generate(Config{Tuples: 1000, Seed: 7, NoiseRate: 0.05})
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), ds.Dirty, StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vio) == 0 {
		t.Fatal("noise produced no violations")
	}
	// Most corruptions should be detectable (some typo streets may land in
	// a singleton zip group and stay invisible — that is expected).
	if len(rep.Vio) < len(ds.Corruptions)/4 {
		t.Errorf("only %d dirty tuples from %d corruptions", len(rep.Vio), len(ds.Corruptions))
	}
}

func TestZeroNoise(t *testing.T) {
	ds := Generate(Config{Tuples: 100, Seed: 1, NoiseRate: 0})
	if len(ds.Corruptions) != 0 {
		t.Errorf("corruptions = %d", len(ds.Corruptions))
	}
	cleanRows := ds.Clean.Snapshot().Rows()
	dirtyRows := ds.Dirty.Snapshot().Rows()
	for i := range cleanRows {
		if !cleanRows[i].Equal(dirtyRows[i]) {
			t.Fatal("zero noise should leave data identical")
		}
	}
}

func TestDefaults(t *testing.T) {
	ds := Generate(Config{})
	if ds.Clean.Len() != 1000 {
		t.Errorf("default tuples = %d", ds.Clean.Len())
	}
}

func TestRepairScoring(t *testing.T) {
	ds := Generate(Config{Tuples: 1500, Seed: 11, NoiseRate: 0.04})
	res, err := repair.NewRepairer().Repair(context.Background(), ds.Dirty, StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("repair did not converge: %d left", res.Remaining)
	}
	score := ds.ScoreRepairCells(res.Repaired, res.ModifiedCells())
	if score.Changed == 0 {
		t.Fatal("repair changed nothing")
	}
	// Repair quality should be far better than chance: the VLDB'07 paper
	// reports high accuracy at these noise rates.
	if p := score.Precision(); p < 0.5 {
		t.Errorf("precision = %.2f", p)
	}
	if r := score.Recall(); r < 0.3 {
		t.Errorf("recall = %.2f", r)
	}
	if score.F1() <= 0 {
		t.Error("F1 = 0")
	}
}

func TestScoreEdgeCases(t *testing.T) {
	var s Score
	if s.Precision() != 1 || s.Recall() != 1 {
		t.Error("empty score should be perfect")
	}
	if s.F1() != 1 {
		t.Errorf("F1 = %v", s.F1())
	}
	s = Score{Changed: 10, Correct: 0, Corrupted: 10, Restored: 0}
	if s.F1() != 0 {
		t.Errorf("F1 = %v", s.F1())
	}
}

func TestTypoAlwaysChanges(t *testing.T) {
	ds := Generate(Config{Tuples: 200, Seed: 3, NoiseRate: 0.5})
	for _, c := range ds.Corruptions {
		if c.Kind == "typo-street" && c.Clean.Equal(c.Dirty) {
			t.Errorf("typo no-op: %+v", c)
		}
	}
}

func TestGroupSizesControllable(t *testing.T) {
	small := Generate(Config{Tuples: 1000, Seed: 5, ZipsPerCity: 2})
	large := Generate(Config{Tuples: 1000, Seed: 5, ZipsPerCity: 100})
	count := func(tab *relstore.Table) int {
		pos, err := tab.Schema().Positions([]string{"CNT", "ZIP"})
		if err != nil {
			t.Fatal(err)
		}
		groups := map[string]bool{}
		for _, row := range tab.Snapshot().Rows() {
			var key []byte
			for _, p := range pos {
				key = row[p].AppendGroupKey(key)
			}
			groups[string(key)] = true
		}
		return len(groups)
	}
	if count(small.Clean) >= count(large.Clean) {
		t.Error("more zips should mean more groups")
	}
}
