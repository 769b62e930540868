package audit

import (
	"context"
	"reflect"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
)

// TestAuditFactorisedMatchesAudit is the equivalence contract: auditing
// the factorised detection result must produce exactly the report that
// auditing the exploded legacy report does — same classifications, bars,
// pie and statistics — across noise rates.
func TestAuditFactorisedMatchesAudit(t *testing.T) {
	ctx := context.Background()
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.08, 0.25} {
		ds := datagen.Generate(datagen.Config{Tuples: 700, Seed: 17, NoiseRate: noise})
		snap := ds.Dirty.Snapshot()
		rep, err := detect.ColumnarDetector{}.DetectSnapshot(ctx, snap, cfds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Audit(snap, cfds, rep)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := detect.DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AuditFactorised(snap, cfds, fr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("noise=%.2f: factorised audit != legacy audit\ngot:  %+v\nwant: %+v",
				noise, got, want)
		}
	}
}

// TestAuditBarsPinned holds the classification scan to the report it
// produced before its per-tuple bookkeeping moved from maps keyed by lowered
// attribute name to vectors by schema position: the bars and tuple counts of
// the tables above, recorded from that version.
func TestAuditBarsPinned(t *testing.T) {
	bars := func(cells ...int) []AttrQuality {
		out := make([]AttrQuality, 7)
		for i, name := range []string{"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"} {
			c := cells[4*i:]
			out[i] = AttrQuality{Attr: name, Total: 700, Verified: c[0], Probably: c[1], Arguably: c[2], Dirty: c[3]}
		}
		return out
	}
	for _, tc := range []struct {
		noise                               float64
		verified, probably, arguably, dirty int
		attrs                               []AttrQuality
	}{
		{0, 700, 700, 700, 0, bars(0, 700, 700, 0, 700, 700, 700, 0, 0, 700, 700, 0, 0, 700, 700, 0, 0, 700, 700, 0, 0, 700, 700, 0, 0, 700, 700, 0)},
		{0.08, 92, 92, 655, 45, bars(0, 700, 700, 0, 690, 690, 690, 10, 0, 93, 662, 38, 0, 700, 700, 0, 0, 662, 691, 9, 0, 700, 700, 0, 0, 700, 700, 0)},
		{0.25, 0, 0, 549, 151, bars(0, 700, 700, 0, 657, 657, 657, 43, 0, 0, 587, 113, 0, 700, 700, 0, 0, 524, 653, 47, 0, 700, 700, 0, 0, 700, 700, 0)},
	} {
		ds := datagen.Generate(datagen.Config{Tuples: 700, Seed: 17, NoiseRate: tc.noise})
		snap := ds.Dirty.Snapshot()
		fr, err := detect.DetectFactorised(context.Background(), snap, datagen.StandardCFDs())
		if err != nil {
			t.Fatal(err)
		}
		got, err := AuditFactorised(snap, datagen.StandardCFDs(), fr)
		if err != nil {
			t.Fatal(err)
		}
		if got.VerifiedTuples != tc.verified || got.ProbablyTuples != tc.probably ||
			got.ArguablyTuples != tc.arguably || got.DirtyTuples != tc.dirty {
			t.Errorf("noise=%.2f: tuples %d/%d/%d/%d, want %d/%d/%d/%d", tc.noise, got.VerifiedTuples,
				got.ProbablyTuples, got.ArguablyTuples, got.DirtyTuples, tc.verified, tc.probably, tc.arguably, tc.dirty)
		}
		if !reflect.DeepEqual(got.Attrs, tc.attrs) {
			t.Errorf("noise=%.2f: bars\ngot:  %+v\nwant: %+v", tc.noise, got.Attrs, tc.attrs)
		}
	}
}

// TestAuditScanAllocatesPerReportNotPerTuple: the classification scan
// allocates its dense per-row vectors and nothing that grows with the table
// in count — no per-row set, no per-cell lowered name, no per-tuple map entry.
func TestAuditScanAllocatesPerReportNotPerTuple(t *testing.T) {
	cfds := datagen.StandardCFDs()
	allocs := func(n int) float64 {
		snap := datagen.Generate(datagen.Config{Tuples: n, Seed: 17}).Dirty.Snapshot()
		fr, err := detect.DetectFactorised(context.Background(), snap, cfds)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := AuditFactorised(snap, cfds, fr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(8000)
	if large > small+16 {
		t.Errorf("audit of 8000 clean tuples makes %.0f allocations, of 500 tuples %.0f: the scan allocates per tuple", large, small)
	}
}
