package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/relstore"
)

// TestRowWriteErrorsNameNoBatch: a row route's write that names a tuple or
// an attribute the table lacks is a 400 whose error reads as a single
// write's, with or without a monitor.
func TestRowWriteErrorsNameNoBatch(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		fx := newSweepFixture(t)
		h := fx.reset()
		if monitored {
			if rec := serveCtx(context.Background(), h, "POST", "/api/monitor/customer", ""); rec.Code != http.StatusOK {
				t.Fatalf("monitor: %d %s", rec.Code, rec.Body)
			}
		}
		for _, c := range []struct{ method, target, body, want string }{
			{"DELETE", "/api/tables/customer/rows/99999", "", "no tuple 99999 in customer"},
			{"PATCH", "/api/tables/customer/rows/1", `{"attr":"NOPE","value":"x"}`, `no attribute "NOPE" in customer`},
			{"POST", "/api/tables/customer/rows", `{"row":["too","short"]}`, "insert into customer: got 2 values, want 7"},
		} {
			rec := serveCtx(context.Background(), h, c.method, c.target, c.body)
			var out struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusBadRequest || out.Error != c.want {
				t.Errorf("monitored %v: %s %s: %d %s, want 400 %q", monitored, c.method, c.target, rec.Code, rec.Body, c.want)
			}
		}
	}
}

// TestConcurrentReloadAndRepairApply: a reviewed repair's apply races a
// reload of the same CSV. Whichever lands first, the modifications can
// land only on the instance the repair was reviewed on, so once both have
// returned the served table holds the CSV's cells as loaded. The rounds are
// many because the interleaving that once wrote the new instance was
// narrow: the apply checked the reviewed instance, and then resolved the
// table's name a second time.
func TestConcurrentReloadAndRepairApply(t *testing.T) {
	want, err := relstore.ReadCSV("customer", strings.NewReader(customersCSV))
	if err != nil {
		t.Fatal(err)
	}
	s := core.New()
	h := New(s).Handler()
	if rec := serveCtx(context.Background(), h, "POST", "/api/tables/customer", customersCSV); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}
	if _, err := s.RegisterCFDText("customer", cfdText); err != nil {
		t.Fatal(err)
	}
	for i := range 5000 {
		if rec := serveCtx(context.Background(), h, "POST", "/api/repair/customer", ""); rec.Code != http.StatusOK {
			t.Fatalf("round %d: repair: %d %s", i, rec.Code, rec.Body)
		}
		var wg sync.WaitGroup
		codes := make([]int, 2)
		for j, req := range [][3]string{{"POST", "/api/repair/customer/apply", ""}, {"POST", "/api/tables/customer", customersCSV}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[j] = serveCtx(context.Background(), h, req[0], req[1], req[2]).Code
			}()
		}
		wg.Wait()
		if codes[0] != http.StatusOK && codes[0] != http.StatusConflict || codes[1] != http.StatusOK {
			t.Fatalf("round %d: apply %d, reload %d", i, codes[0], codes[1])
		}
		tab, err := s.Table("customer")
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Snapshot().Rows(); !reflect.DeepEqual(got, want.Snapshot().Rows()) {
			t.Fatalf("round %d (apply %d): the reloaded table was repaired:\n%v", i, codes[0], fmt.Sprint(got))
		}
	}
}
