package discovery

import (
	"context"
	"fmt"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
)

// TestMinedCFDsHoldOnOwnSnapshot is the mining/detection consistency
// property: every CFD discovered at confidence 1.0 must produce zero
// violations when fed back through Detect on the exact snapshot it was
// mined from — whatever noise was injected, the miner only asserts rules
// the data actually satisfies. Run across noise levels, support
// thresholds and lattice depths, for exact and approximate mining (in the
// approximate run only the confidence-1.0 candidates are replayed).
func TestMinedCFDsHoldOnOwnSnapshot(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.10} {
		for _, minConf := range []float64{1.0, 0.85} {
			noise, minConf := noise, minConf
			t.Run(fmt.Sprintf("noise%g_conf%g", noise, minConf), func(t *testing.T) {
				ds := datagen.Generate(datagen.Config{Tuples: 1500, Seed: 21, NoiseRate: noise})
				snap := ds.Dirty.Snapshot()
				rep, err := Mine(context.Background(), snap, Options{
					MinSupport: 15, MaxLHS: 3, MinConfidence: minConf,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Keep only the patterns mined at confidence 1.0; below-1
				// candidates are approximate by contract and may violate.
				var exact []*cfd.CFD
				for _, c := range rep.Candidates {
					if c.Confidence == 1.0 {
						exact = append(exact, c.CFD)
					}
				}
				if len(exact) == 0 {
					t.Fatal("no exact candidates mined; the property is vacuous")
				}
				if minConf < 1 && len(exact) == len(rep.Candidates) && noise > 0 {
					t.Log("note: approximate run admitted no sub-1.0 candidates")
				}
				merged := cfd.MergeByFD(exact)
				for i, c := range merged {
					c.ID = fmt.Sprintf("x%d", i+1)
				}
				det, err := detect.ColumnarDetector{Workers: 1}.DetectSnapshot(context.Background(), snap, merged)
				if err != nil {
					t.Fatal(err)
				}
				if len(det.Violations) != 0 {
					v := det.Violations[0]
					t.Errorf("mined-at-1.0 CFDs violated on their own snapshot: %d violations (first: cfd=%s tuple=%d attr=%s)",
						len(det.Violations), v.CFDID, v.TupleID, v.Attr)
				}
				if det.Version != rep.Version {
					t.Errorf("detect ran at version %d but mining reported %d", det.Version, rep.Version)
				}
			})
		}
	}
}
