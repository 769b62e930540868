package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("experiments = %d, want 4", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("F2"); !ok {
		t.Error("ByID(F2) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

// TestAllExperimentsRunQuick executes every experiment on the shrunk
// workload and sanity-checks the printed tables. This is the end-to-end
// test that every paper artifact can actually be regenerated.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	wants := map[string][]string{
		"F2": {"drill-down", "phi2", "(UK, _ || _)", "EH2 4SD", "Mayfield", "majority"},
		"F3": {"data quality map", "dirty tuples", "histogram", "phi"},
		"F4": {"Data quality report", "attribute-value quality", "violations per CFD"},
		"F5": {"candidate repair", "precision", "alt", "incremental re-detection"},
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(t.Context(), &buf, true); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			for _, want := range wants[e.ID] {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", e.ID, want, out)
				}
			}
		})
	}
}
