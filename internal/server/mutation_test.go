package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestRowMutationEndpoints drives the insert/patch/delete row API and
// checks each response carries the produced table version.
func TestRowMutationEndpoints(t *testing.T) {
	ts := testServer(t)

	out := do(t, ts, "POST", "/api/tables/customer/rows",
		`{"row":["Zoe","UK","Edinburgh","EH2 4SD","Mayfield",44,131]}`, http.StatusOK)
	id := int64(out["id"].(float64))
	v1 := out["version"].(float64)
	if v1 <= 0 {
		t.Fatalf("insert version = %v", v1)
	}

	out = do(t, ts, "PATCH", fmt.Sprintf("/api/tables/customer/rows/%d", id),
		`{"attr":"STR","value":"Newstreet"}`, http.StatusOK)
	v2 := out["version"].(float64)
	if v2 <= v1 {
		t.Fatalf("patch version %v not after insert version %v", v2, v1)
	}

	// The table endpoint reflects the mutations and the same version.
	out = do(t, ts, "GET", "/api/tables/customer?limit=100", "", http.StatusOK)
	if out["version"].(float64) != v2 {
		t.Fatalf("table version %v, want %v", out["version"], v2)
	}
	rows := out["rows"].([]any)
	last := rows[len(rows)-1].(map[string]any)
	if int64(last["id"].(float64)) != id || last["row"].([]any)[4] != "Newstreet" {
		t.Fatalf("mutated row = %v", last)
	}

	out = do(t, ts, "DELETE", fmt.Sprintf("/api/tables/customer/rows/%d", id), "", http.StatusOK)
	if out["version"].(float64) <= v2 {
		t.Fatalf("delete version %v not after %v", out["version"], v2)
	}

	// Unknown table and bad rows error cleanly.
	do(t, ts, "POST", "/api/tables/ghost/rows", `{"row":["x"]}`, http.StatusNotFound)
	do(t, ts, "POST", "/api/tables/customer/rows", `{"row":["too","short"]}`, http.StatusBadRequest)
	do(t, ts, "DELETE", "/api/tables/customer/rows/99999", "", http.StatusBadRequest)
}

// TestMutationsRouteThroughMonitor: with a monitor active, a row inserted
// via the mutation endpoint is tracked immediately (dirty count moves
// without any re-detection).
func TestMutationsRouteThroughMonitor(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "POST", "/api/monitor/customer", "", http.StatusOK)
	startDirty := int(out["dirty"].(float64))
	// CC=44 with CNT=US violates phi4 ([CC=44] -> [CNT=UK]).
	do(t, ts, "POST", "/api/tables/customer/rows",
		`{"row":["Eve","US","Boston","02134","Elm",44,617]}`, http.StatusOK)
	out = do(t, ts, "POST", "/api/monitor/customer/updates", `{"updates":[]}`, http.StatusOK)
	// The insert went through the monitor's tracker: the tracked dirty
	// count includes the violating row without any fresh detection pass.
	if after := int(out["dirty"].(float64)); after <= startDirty {
		t.Fatalf("monitor missed the violating insert: dirty %d -> %d", startDirty, after)
	}
}

// TestRejectedUpdateBatchChangesNothing: an updates request whose last
// update cannot apply is a 400 that leaves the table at its version and the
// monitor's tracker equal to batch detection, its vio(t) included.
func TestRejectedUpdateBatchChangesNothing(t *testing.T) {
	s := core.New()
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)
	do(t, ts, "POST", "/api/tables/customer", customersCSV, http.StatusOK)
	body, _ := json.Marshal(map[string]string{"text": cfdText})
	do(t, ts, "POST", "/api/cfds/customer", string(body), http.StatusOK)
	do(t, ts, "POST", "/api/monitor/customer", "", http.StatusOK)
	version := do(t, ts, "GET", "/api/tables/customer", "", http.StatusOK)["version"]
	for _, bad := range []string{
		`{"op":"set","id":0,"attr":"NOPE","value":"x"}`,
		`{"op":"set","id":99999,"attr":"STR","value":"x"}`,
		`{"op":"delete","id":1}`, // deleted earlier in the batch
	} {
		batch := `{"updates":[{"op":"insert","row":["Zoe","UK","Edinburgh","EH2 4SD","Elm",44,131]},` +
			`{"op":"set","id":0,"attr":"STR","value":"Other"},{"op":"delete","id":1},` + bad + `]}`
		do(t, ts, "POST", "/api/monitor/customer/updates", batch, http.StatusBadRequest)
		if got := do(t, ts, "GET", "/api/tables/customer", "", http.StatusOK)["version"]; got != version {
			t.Fatalf("%s: the rejected batch moved the version %v -> %v", bad, version, got)
		}
	}
	tab, err := s.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.ActiveMonitor("customer")
	if err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot()
	want, err := detect.ColumnarDetector{}.DetectSnapshot(t.Context(), snap, m.CFDs())
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := m.FactorReport(snap)
	if !ok || !reflect.DeepEqual(fr.Explode(), want) || !reflect.DeepEqual(m.Tracker().VioMap(), want.Vio) {
		t.Fatal("after rejected batches the tracker differs from batch detection")
	}
}

// TestMutationEndpointsDriveIncrementalServing: edits arriving over the
// HTTP mutation API land in the table's write overlay, so the next detection's
// snapshot is delta-patched from the previous version's caches instead of
// batch-rebuilt. Asserted on the global build-ops counters (this package's
// tests run sequentially, so the measurement window is ours).
func TestMutationEndpointsDriveIncrementalServing(t *testing.T) {
	ts := testServer(t)
	// Warm the version caches: the first detection pays the batch build.
	do(t, ts, "POST", "/api/detect/customer?engine=columnar", "", http.StatusOK)
	// Rewrite Ben's CNT through the HTTP surface only. Both the old value
	// (US — Joe keeps its first occurrence) and the new one (UK) stay in
	// the CNT dictionary at their positions, so the patcher can splice
	// rather than rebuild the column.
	do(t, ts, "PATCH", "/api/tables/customer/rows/4",
		`{"attr":"CNT","value":"UK"}`, http.StatusOK)

	before := relstore.ReadBuildOps()
	do(t, ts, "POST", "/api/detect/customer?engine=columnar", "", http.StatusOK)
	ops := relstore.ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 1 || ops.BatchSnapshots != 0 {
		t.Fatalf("detect after an HTTP edit rebuilt the snapshot instead of patching: %+v", ops)
	}
	// Both values already exist in the dictionary: the single-cell edit
	// must not re-intern the column.
	if ops.InternedCells != 0 || ops.RebuiltColumns != 0 {
		t.Fatalf("single-cell HTTP edit interned %d cells, rebuilt %d columns: %+v",
			ops.InternedCells, ops.RebuiltColumns, ops)
	}
}

// TestValueCoercionUsesSchemaType: JSON 5.0 arriving for a FLOAT column
// stays a float (the old inference silently flipped it to Int, breaking
// Equal comparisons against the column's other float values).
func TestValueCoercionUsesSchemaType(t *testing.T) {
	s := core.New()
	tab := relstore.NewTable(schema.NewTyped("readings",
		schema.Attribute{Name: "ID", Type: types.KindInt},
		schema.Attribute{Name: "TEMP", Type: types.KindFloat},
	))
	tab.MustInsert(relstore.Tuple{types.NewInt(1), types.NewFloat(20.5)})
	s.RegisterTable(tab)
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)

	// Monitor-style set with an integral JSON number on the float column.
	if _, err := s.RegisterCFDText("readings", `readings: [ID=_] -> [TEMP=_]`); err != nil {
		t.Fatal(err)
	}
	do(t, ts, "POST", "/api/monitor/readings", "", http.StatusOK)
	body, _ := json.Marshal(map[string]any{"updates": []any{
		map[string]any{"op": "set", "id": 0, "attr": "TEMP", "value": 5.0},
	}})
	do(t, ts, "POST", "/api/monitor/readings/updates", string(body), http.StatusOK)
	row, _ := tab.Get(0)
	if row[1].Kind() != types.KindFloat || row[1].Float() != 5.0 {
		t.Fatalf("TEMP = %v (kind %v), want Float 5.0", row[1], row[1].Kind())
	}

	// Row insert honors the declared types as well.
	do(t, ts, "POST", "/api/tables/readings/rows", `{"row":[2, 7]}`, http.StatusOK)
	row, _ = tab.Get(1)
	if row[0].Kind() != types.KindInt || row[1].Kind() != types.KindFloat {
		t.Fatalf("inserted kinds = %v, %v; want Int, Float", row[0].Kind(), row[1].Kind())
	}
}

// TestValueForAttrFallbacks covers the untyped-column inference and the
// string-to-number coercions.
func TestValueForAttrFallbacks(t *testing.T) {
	sc := schema.NewTyped("r",
		schema.Attribute{Name: "U"}, // untyped
		schema.Attribute{Name: "F", Type: types.KindFloat},
		schema.Attribute{Name: "I", Type: types.KindInt},
		schema.Attribute{Name: "S", Type: types.KindString},
		schema.Attribute{Name: "B", Type: types.KindBool},
	)
	cases := []struct {
		pos  int
		in   any
		want types.Value
	}{
		{0, 5.0, types.NewInt(5)}, // untyped: inference
		{0, 5.5, types.NewFloat(5.5)},
		{1, 5.0, types.NewFloat(5.0)},
		{1, "2.5", types.NewFloat(2.5)},
		{2, 7.0, types.NewInt(7)},
		{2, 7.5, types.NewFloat(7.5)}, // non-integral for INT: keep the value
		{2, "7", types.NewInt(7)},
		{3, "x", types.NewString("x")},
		{4, true, types.NewBool(true)},
		{1, nil, types.Null},
	}
	for _, c := range cases {
		got := valueForAttr(sc, c.pos, c.in)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("valueForAttr(pos %d, %v) = %v (kind %v), want %v", c.pos, c.in, got, got.Kind(), c.want)
		}
	}
}
