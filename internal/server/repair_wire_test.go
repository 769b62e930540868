package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/types"
)

// modMap is the map form the repair endpoints encoded before modWire: the
// wire oracle their bodies are held to.
func modMap(m repair.Modification) map[string]any {
	alts := make([]map[string]any, 0, len(m.Alternatives))
	for _, a := range m.Alternatives {
		alts = append(alts, map[string]any{"value": jsonValue(a.Value), "cost": a.Cost})
	}
	return map[string]any{
		"tuple": int64(m.TupleID), "attr": m.Attr,
		"old": jsonValue(m.Old), "new": jsonValue(m.New),
		"cost": m.Cost, "cfd": m.CFDID, "reason": m.Reason,
		"alternatives": alts,
	}
}

func modsMap(mods []repair.Modification) []map[string]any {
	out := make([]map[string]any, 0, len(mods))
	for _, m := range mods {
		out = append(out, modMap(m))
	}
	return out
}

// mapForm is writeJSON's response for v: status, Content-Type and body.
func mapForm(v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec
}

// sameResponse fails unless got and want agree on status, Content-Type and
// every body byte.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: status %d %q\n got %.400s\nwant status %d %q\n     %.400s", what,
			got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
			want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
	}
}

func post(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)))
	return rec
}

// TestRepairBodiesMatchMapForm pins the review payloads byte for byte
// against the map form: the candidate repair of a dirty generated table,
// its apply with one modification gone stale, and a cleansed monitor's
// update batch that repairs what it inserts. A second session that did the
// same through the facade supplies the values.
func TestRepairBodiesMatchMapForm(t *testing.T) {
	ctx := context.Background()
	served, twin := datasetSession(t, 2000, 0.05), datasetSession(t, 2000, 0.05)
	h := New(served).Handler()

	rec := post(h, "/api/repair/customer", "")
	res, err := twin.Repair(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modifications) < 20 {
		t.Fatalf("the dirty table needs %d modifications; the pin wants a real payload", len(res.Modifications))
	}
	sameResponse(t, "repair", rec, mapForm(map[string]any{
		"converged": res.Converged, "remaining": res.Remaining, "passes": res.Passes,
		"cost": res.Cost, "modifications": modsMap(res.Modifications),
	}))

	stale := res.Modifications[len(res.Modifications)/2]
	for _, s := range []*core.Semandaq{served, twin} {
		if _, err := s.SetCell("customer", stale.TupleID, stale.Attr, types.NewString("edited under review")); err != nil {
			t.Fatal(err)
		}
	}
	rec = post(h, "/api/repair/customer/apply", "")
	applied, skipped, err := twin.ApplyRepair("customer", res.Modifications)
	if err != nil || len(skipped) == 0 {
		t.Fatalf("twin apply: %d skipped, err %v", len(skipped), err)
	}
	sameResponse(t, "apply", rec, mapForm(map[string]any{"applied": applied, "skipped": modsMap(skipped)}))

	for _, s := range []*core.Semandaq{served, twin} {
		if _, err := s.Monitor(ctx, "customer", core.WithCleansed(true)); err != nil {
			t.Fatal(err)
		}
	}
	// A UK customer's twin with a wrong street and the country flipped.
	tab, _ := twin.Table("customer")
	sc, snap := tab.Schema(), tab.Snapshot()
	var tuple relstore.Tuple
	for i := 0; tuple == nil; i++ {
		if row := snap.Row(i); row[sc.MustPos("CNT")].Str() == "UK" {
			tuple = row
		}
	}
	tuple[sc.MustPos("CNT")], tuple[sc.MustPos("STR")] = types.NewString("US"), types.NewString("Wrongstreet")
	body, _ := json.Marshal(map[string]any{"updates": []any{map[string]any{"op": "insert", "row": jsonRow(tuple)}}})
	rec = post(h, "/api/monitor/customer/updates", string(body))
	up, err := twin.ApplyUpdates("customer", []monitor.Update{{Op: monitor.OpInsert, Row: tuple}})
	if err != nil || len(up.Repairs) == 0 {
		t.Fatalf("twin updates: %d repairs, err %v", len(up.Repairs), err)
	}
	sameResponse(t, "monitor updates", rec, mapForm(map[string]any{
		"inserted": []int64{int64(up.Inserted[0])}, "dirty": up.Dirty,
		"repairs": modsMap(up.Repairs), "version": up.Version,
	}))
}

// skippedJSON is the apply response's shape around modWire.
type skippedJSON struct {
	Skipped []modWire `json:"skipped"`
}

// TestModsEncoderMatchesMapForm holds modWire to the map form on values the
// generated data never holds: exponent-form and negative floats, strings
// encoding/json escapes, NULL and booleans, and non-finite numbers, which
// must fail the response alike.
func TestModsEncoderMatchesMapForm(t *testing.T) {
	mod := func(cost float64, old, new types.Value, alts ...repair.Alternative) repair.Modification {
		return repair.Modification{TupleID: 7, Attr: "S <&>", Old: old, New: new, Cost: cost,
			CFDID: "naïve\"id", Reason: "\x00tab\there", Alternatives: alts}
	}
	for _, mods := range [][]repair.Modification{
		nil,
		{mod(1e-7, types.NewFloat(-2.5e21), types.NewFloat(1e21), repair.Alternative{Value: types.Null, Cost: 0.1},
			repair.Alternative{Value: types.NewBool(true), Cost: 5e-324})},
		{mod(0, types.NewString("a\xffb"), types.NewInt(-3)), mod(-0.0, types.NewBool(false), types.NewFloat(-1e-6))},
		{mod(math.NaN(), types.Null, types.Null)},
		{mod(1, types.NewFloat(math.Inf(-1)), types.NewFloat(math.Inf(1)))},
	} {
		sameResponse(t, "modifications", mapForm(skippedJSON{modsWire(mods)}), mapForm(map[string]any{"skipped": modsMap(mods)}))
	}
}

// TestRepairEncodeAllocs gates the review payload at O(1) allocations per
// modification (the map form made 34 per modification here).
func TestRepairEncodeAllocs(t *testing.T) {
	res, err := datasetSession(t, 2000, 0.05).Repair(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	w := &discard{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(20, func() { writeJSON(w, skippedJSON{modsWire(res.Modifications)}) })
	t.Logf("encoding %d modifications: %.0f allocations", len(res.Modifications), allocs)
	if limit := 4 * float64(len(res.Modifications)); allocs > limit {
		t.Errorf("encoding %d modifications allocates %.0f times, more than %.0f", len(res.Modifications), allocs, limit)
	}
}

// TestRecoverAnswers500 wraps panicking handlers in the recover middleware:
// one that has written nothing answers 500 with a JSON error body, one that
// has is aborted, and the real routes go on serving — the pending repair
// applies and the cached report still answers.
func TestRecoverAnswers500(t *testing.T) {
	log.SetOutput(io.Discard) // the panics' stacks
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ts := testServer(t)
	do(t, ts, "POST", "/api/repair/customer", "", http.StatusOK)
	do(t, ts, "POST", "/api/detect/customer?engine=columnar", "", http.StatusOK)

	rec := httptest.NewRecorder()
	recoverJSON(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })).
		ServeHTTP(rec, httptest.NewRequest("GET", "/api/boom", nil))
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusInternalServerError || err != nil || out["error"] == "" {
		t.Fatalf("panicking handler: status %d, body %q", rec.Code, rec.Body)
	}
	func() {
		defer func() {
			if p := recover(); !errors.Is(p.(error), http.ErrAbortHandler) {
				t.Errorf("a panic after the handler wrote: %v, want http.ErrAbortHandler", p)
			}
		}()
		recoverJSON(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("{"))
			panic("mid-body")
		})).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/boom", nil))
	}()

	if out := do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusOK); out["applied"].(float64) == 0 {
		t.Errorf("apply after the panics = %v", out)
	}
	if out := do(t, ts, "POST", "/api/detect/customer?engine=columnar", "", http.StatusOK); out["dirty"].(float64) != 0 {
		t.Errorf("detect after the panics = %v", out)
	}
}

// TestRecoverAllocatesNothing: the middleware costs no allocation per
// request.
func TestRecoverAllocatesNothing(t *testing.T) {
	h := recoverJSON(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) }))
	req, w := httptest.NewRequest("GET", "/", nil), &discard{hdr: http.Header{}}
	if allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); allocs != 0 {
		t.Errorf("the recover middleware allocates %.0f times per request", allocs)
	}
}
