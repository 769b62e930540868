package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/types"
)

// TestWriteAllocs gates the session's write path for a batch of one: a
// direct Insert, Delete or SetCell allocates nothing, and with a
// detect-mode monitor no more than the write path made before it became
// one batch path (2, 3 and 2: the monitor's result and touched list, and
// an insert's ID list). The batch of one must not escape. The cell edits
// write NAME, which no standard CFD reads, so the tracker re-indexes
// nothing and the counts are the write path's own.
func TestWriteAllocs(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 5})
		s := New()
		s.RegisterTable(ds.Clean)
		if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{"SetCell": 0, "Insert": 0, "Delete": 0}
		if monitored {
			if _, err := s.Monitor(context.Background(), "customer"); err != nil {
				t.Fatal(err)
			}
			want = map[string]float64{"SetCell": 2, "Insert": 3, "Delete": 2}
		}
		snap := ds.Clean.Snapshot()
		ids, row := snap.IDs(), snap.Row(0)
		const runs = 100
		i := 0
		got := map[string]float64{
			"SetCell": testing.AllocsPerRun(runs, func() {
				i++
				name := types.NewString("Ann")
				if i%2 == 0 {
					name = types.NewString("Bob")
				}
				if _, err := s.SetCell("customer", ids[i%8], "NAME", name); err != nil {
					t.Fatal(err)
				}
			}),
			"Insert": testing.AllocsPerRun(runs, func() {
				if _, _, err := s.Insert("customer", row); err != nil {
					t.Fatal(err)
				}
			}),
		}
		i = 0
		got["Delete"] = testing.AllocsPerRun(runs, func() {
			i++
			if _, err := s.Delete("customer", ids[len(ids)-i]); err != nil {
				t.Fatal(err)
			}
		})
		for _, op := range []string{"SetCell", "Insert", "Delete"} {
			t.Logf("monitored %v: %s %.1f allocations", monitored, op, got[op])
			if got[op] > want[op] {
				t.Errorf("monitored %v: %s allocates %.1f times, want <= %.0f", monitored, op, got[op], want[op])
			}
		}
	}
}

// TestSingleWriteErrors: a write that names a tuple or an attribute the
// table lacks is refused by the batch validator with or without a monitor,
// in words that name no batch, and changes nothing.
func TestSingleWriteErrors(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		s := session(t)
		if monitored {
			if _, err := s.Monitor(context.Background(), "customer"); err != nil {
				t.Fatal(err)
			}
		}
		tab, _ := s.Table("customer")
		version := tab.Version()
		for _, c := range []struct {
			write func() error
			want  string
		}{
			{func() error { _, err := s.Delete("customer", 99999); return err }, "no tuple 99999 in customer"},
			{func() error { _, err := s.SetCell("customer", 0, "NOPE", types.NewString("x")); return err }, `no attribute "NOPE" in customer`},
			{func() error { _, err := s.SetCell("customer", 99999, "CITY", types.NewString("x")); return err }, "no tuple 99999 in customer"},
			{func() error { _, _, err := s.Insert("customer", relstore.Tuple{types.NewString("x")}); return err },
				"insert into customer: got 1 values, want 7"},
			{func() error {
				_, _, err := s.ApplyRepair("customer", []repair.Modification{{TupleID: 0, Attr: "NOPE"}})
				return err
			},
				`no attribute "NOPE" in customer`},
		} {
			if err := c.write(); err == nil || err.Error() != c.want {
				t.Errorf("monitored %v: error %v, want %q", monitored, err, c.want)
			}
		}
		if tab.Version() != version {
			t.Errorf("monitored %v: the refused writes moved the version %d -> %d", monitored, version, tab.Version())
		}
	}
}

// TestApplyRepairWithoutMonitor: a reviewed repair applied to a table with
// no monitor lands every modification and leaves the table clean.
func TestApplyRepairWithoutMonitor(t *testing.T) {
	s := session(t)
	res, err := s.Repair(context.Background(), "customer")
	if err != nil || !res.Converged {
		t.Fatalf("repair: %v, %v", res, err)
	}
	applied, skipped, err := s.ApplyRepair("customer", res.Modifications)
	if err != nil || applied != len(res.Modifications) || len(skipped) != 0 {
		t.Fatalf("applied %d of %d, skipped %d, err %v", applied, len(res.Modifications), len(skipped), err)
	}
	rep, err := s.Detect(context.Background(), "customer")
	if err != nil || len(rep.Violations) != 0 {
		t.Fatalf("after the apply: %v violations, err %v", rep, err)
	}
}

// TestPendingRepair: ApplyPendingRepair applies what Repair computed and
// consumes it; without one, or after it, it is ErrNoPendingRepair.
func TestPendingRepair(t *testing.T) {
	s := session(t)
	if _, _, err := s.ApplyPendingRepair("customer"); !errors.Is(err, ErrNoPendingRepair) {
		t.Fatalf("before a repair: %v, want ErrNoPendingRepair", err)
	}
	if _, _, err := s.ApplyPendingRepair("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("an unknown table: %v, want ErrNoTable", err)
	}
	res, err := s.Repair(context.Background(), "Customer")
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped, err := s.ApplyPendingRepair("customer")
	if err != nil || applied != len(res.Modifications) || len(skipped) != 0 {
		t.Fatalf("applied %d of %d, skipped %d, err %v", applied, len(res.Modifications), len(skipped), err)
	}
	if _, _, err := s.ApplyPendingRepair("customer"); !errors.Is(err, ErrNoPendingRepair) {
		t.Fatalf("a second apply: %v, want ErrNoPendingRepair", err)
	}
}

// TestReloadThenPendingApply: a repair reviewed on a table does not apply
// to the same-content table that replaced it. The pending apply finds no
// pending repair on the new record, and the new table's version and cells
// are as loaded.
func TestReloadThenPendingApply(t *testing.T) {
	s := session(t)
	if _, err := s.Repair(context.Background(), "customer"); err != nil {
		t.Fatal(err)
	}
	fresh, err := relstore.ReadCSV("customer", strings.NewReader(customersCSV))
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTable(fresh)
	version, rows := fresh.Version(), fmt.Sprint(fresh.Snapshot().Rows())
	if _, _, err := s.ApplyPendingRepair("customer"); !errors.Is(err, ErrNoPendingRepair) {
		t.Fatalf("apply after a reload: %v, want ErrNoPendingRepair", err)
	}
	if fresh.Version() != version || fmt.Sprint(fresh.Snapshot().Rows()) != rows {
		t.Fatal("the reloaded table was written")
	}
}
