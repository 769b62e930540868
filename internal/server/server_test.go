package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

const customersCSV = `NAME,CNT,CITY,ZIP,STR,CC,AC
Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Nora,UK,Edinburgh,EH2 4SD,Mayfeild,44,131
Joe,US,New York,01202,Mtn Ave,44,908
Ben,US,Chicago,60601,Wacker,1,312
`

const cfdText = `phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi4@ customer: [CC=44] -> [CNT=UK]`

// testServer spins up a server with the customer data and CFDs loaded.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(core.New()).Handler())
	t.Cleanup(ts.Close)
	do(t, ts, "POST", "/api/tables/customer", customersCSV, http.StatusOK)
	body, _ := json.Marshal(map[string]string{"text": cfdText})
	do(t, ts, "POST", "/api/cfds/customer", string(body), http.StatusOK)
	return ts
}

// do performs a request and decodes the JSON response.
func do(t *testing.T, ts *httptest.Server, method, path, body string, wantStatus int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

// TestOversizedBodiesAre413: a body past maxBodyBytes — a CSV load, or a
// JSON document on any route that decodes one — is a 413, and the table the
// request named is still registered and unchanged. The CSV loader reads the
// whole body before it parses a byte, so an oversized CSV is a 413 even when
// a line before the cap is malformed.
func TestOversizedBodiesAre413(t *testing.T) {
	ts := testServer(t)
	before := do(t, ts, "GET", "/api/tables/customer", "", http.StatusOK)
	huge := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/api/tables/customer", "NAME,CNT\n" + huge + ",UK\n"},
		{"POST", "/api/tables/customer", "NAME,CNT\nMike,UK,ragged\n" + huge + ",UK\n"},
		{"POST", "/api/cfds/customer", `{"text": "` + huge + `"}`},
		{"POST", "/api/tables/customer/rows", `{"row": ["` + huge + `"]}`},
		{"PATCH", "/api/tables/customer/rows/1", `{"attr": "CNT", "value": "` + huge + `"}`},
		{"POST", "/api/discover/customer", `{"minSupport": 2, "pad": "` + huge + `"}`},
	} {
		out := do(t, ts, c.method, c.path, c.body, http.StatusRequestEntityTooLarge)
		if msg, _ := out["error"].(string); !strings.Contains(msg, "too large") {
			t.Errorf("%s %s: error %q does not say the body is too large", c.method, c.path, msg)
		}
	}
	if after := do(t, ts, "GET", "/api/tables/customer", "", http.StatusOK); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("the refused requests changed the table:\nbefore %v\nafter  %v", before, after)
	}
}

func TestLoadAndListTables(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "GET", "/api/tables", "", http.StatusOK)
	tables := out["tables"].([]any)
	if len(tables) != 1 || tables[0] != "customer" {
		t.Errorf("tables = %v", tables)
	}
	out = do(t, ts, "GET", "/api/tables/customer?limit=2&offset=1", "", http.StatusOK)
	if out["tuples"].(float64) != 5 {
		t.Errorf("tuples = %v", out["tuples"])
	}
	rows := out["rows"].([]any)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	first := rows[0].(map[string]any)
	if first["id"].(float64) != 1 {
		t.Errorf("offset ignored: %v", first)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	ts := httptest.NewServer(New(core.New()).Handler())
	defer ts.Close()
	do(t, ts, "POST", "/api/tables/x", "", http.StatusBadRequest)
	do(t, ts, "GET", "/api/tables/missing", "", http.StatusNotFound)
}

// TestLoadCSVHeader: a header that would leave a column unreachable by name
// is a 400 naming the column, and the table already registered under that
// name keeps serving; a byte order mark is not part of the first attribute.
func TestLoadCSVHeader(t *testing.T) {
	ts := testServer(t)
	for body, want := range map[string]string{
		"NAME,name\nMike,Rick\n": `column 2 ("name") repeats column 1 ("NAME")`,
		"NAME,\nMike,Rick\n":     "column 2 has no name",
	} {
		out := do(t, ts, "POST", "/api/tables/customer", body, http.StatusBadRequest)
		if msg, _ := out["error"].(string); !strings.Contains(msg, want) {
			t.Errorf("POST %q: error = %q, want it to say %s", body, msg, want)
		}
	}
	if out := do(t, ts, "GET", "/api/tables/customer", "", http.StatusOK); out["tuples"].(float64) != 5 {
		t.Errorf("after refused loads: tuples = %v, want the registered table's 5", out["tuples"])
	}
	if out := do(t, ts, "POST", "/api/detect/customer", "", http.StatusOK); out["dirty"].(float64) != 4 {
		t.Errorf("after refused loads: dirty = %v, want 4", out["dirty"])
	}

	out := do(t, ts, "POST", "/api/tables/marked", "\ufeff"+customersCSV, http.StatusOK)
	if attrs := out["attrs"].([]any); attrs[0] != "NAME" {
		t.Errorf("attrs = %v, want the byte order mark stripped", attrs)
	}
	body, _ := json.Marshal(map[string]string{"text": "marked: [NAME=_] -> [CNT=_]"})
	do(t, ts, "POST", "/api/cfds/marked", string(body), http.StatusOK)
}

func TestRegisterAndListCFDs(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "GET", "/api/cfds/customer", "", http.StatusOK)
	cfds := out["cfds"].([]any)
	if len(cfds) != 2 {
		t.Fatalf("cfds = %v", cfds)
	}
	first := cfds[0].(map[string]any)
	if first["id"] != "phi2" {
		t.Errorf("first = %v", first)
	}
	// Unsatisfiable registration is rejected.
	bad, _ := json.Marshal(map[string]string{"text": `
customer: [NAME=_] -> [CNT=UK]
customer: [NAME=_] -> [CNT=US]`})
	out = do(t, ts, "POST", "/api/cfds/customer", string(bad), http.StatusBadRequest)
	if !strings.Contains(out["error"].(string), "unsatisfiable") {
		t.Errorf("error = %v", out["error"])
	}
	// Malformed JSON body.
	do(t, ts, "POST", "/api/cfds/customer", "{broken", http.StatusBadRequest)
}

func TestConsistencyEndpoint(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "GET", "/api/consistency/customer", "", http.StatusOK)
	if out["satisfiable"] != true {
		t.Errorf("out = %v", out)
	}
}

func TestDetectEndpoint(t *testing.T) {
	ts := testServer(t)
	for _, engine := range []string{"", "?engine=native", "?engine=parallel", "?engine=parallel&workers=2"} {
		out := do(t, ts, "POST", "/api/detect/customer"+engine, "", http.StatusOK)
		if out["dirty"].(float64) != 4 {
			t.Errorf("engine %q dirty = %v", engine, out["dirty"])
		}
		per := out["perCFD"].(map[string]any)
		if len(per) != 2 {
			t.Errorf("perCFD = %v", per)
		}
	}
	out := do(t, ts, "GET", "/api/detect/customer/sql", "", http.StatusOK)
	stmts := out["sql"].([]any)
	if len(stmts) == 0 {
		t.Error("no SQL")
	}
	do(t, ts, "POST", "/api/detect/nope", "", http.StatusNotFound)
	// The 400 lists the engines; native is an alias, not one of them.
	out = do(t, ts, "POST", "/api/detect/customer?engine=warp", "", http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.HasSuffix(msg, `"warp" (want one of [sql parallel columnar])`) {
		t.Errorf("error %q does not list exactly sql, parallel and columnar", msg)
	}
	do(t, ts, "POST", "/api/detect/customer?engine=parallel&workers=x", "", http.StatusBadRequest)
}

func TestAuditEndpoint(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "GET", "/api/audit/customer", "", http.StatusOK)
	if out["dirty"].(float64) != 2 { // Nora + Joe
		t.Errorf("dirty = %v", out["dirty"])
	}
	attrs := out["attrs"].([]any)
	if len(attrs) != 7 {
		t.Errorf("attrs = %d", len(attrs))
	}
	if !strings.Contains(out["text"].(string), "Data quality report") {
		t.Error("text render missing")
	}
}

func TestExploreEndpoints(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "GET", "/api/explore/customer/cfds", "", http.StatusOK)
	if len(out["cfds"].([]any)) != 2 {
		t.Errorf("cfds = %v", out)
	}
	out = do(t, ts, "GET", "/api/explore/customer/patterns?cfd=phi2", "", http.StatusOK)
	pats := out["patterns"].([]any)
	if len(pats) != 1 {
		t.Fatalf("patterns = %v", pats)
	}
	out = do(t, ts, "GET", "/api/explore/customer/lhs?cfd=phi2&pattern=0", "", http.StatusOK)
	groups := out["groups"].([]any)
	if len(groups) != 1 { // only the EH2 4SD group
		t.Fatalf("groups = %v", groups)
	}
	g := groups[0].(map[string]any)
	if g["rhsValues"].(float64) != 2 {
		t.Errorf("group = %v", g)
	}
	out = do(t, ts, "GET", "/api/explore/customer/map", "", http.StatusOK)
	if len(out["map"].([]any)) != 5 {
		t.Errorf("map = %v", out["map"])
	}
	out = do(t, ts, "GET", "/api/explore/customer/tuple/0", "", http.StatusOK)
	rel := out["relevant"].([]any)
	if len(rel) != 2 {
		t.Errorf("relevant = %v", rel)
	}
	do(t, ts, "GET", "/api/explore/customer/tuple/abc", "", http.StatusBadRequest)
	do(t, ts, "GET", "/api/explore/customer/tuple/999", "", http.StatusNotFound)
	do(t, ts, "GET", "/api/explore/customer/patterns?cfd=nope", "", http.StatusBadRequest)
	// A pattern index that is no integer is refused, not read as pattern 0.
	out = do(t, ts, "GET", "/api/explore/customer/lhs?cfd=phi2&pattern=abc", "", http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, `"abc"`) {
		t.Errorf("error %q does not name the bad pattern value", msg)
	}
	do(t, ts, "GET", "/api/explore/customer/lhs?cfd=phi2&pattern=7", "", http.StatusBadRequest)
	// No pattern parameter still means pattern 0.
	if out := do(t, ts, "GET", "/api/explore/customer/lhs?cfd=phi2", "", http.StatusOK); len(out["groups"].([]any)) != 1 {
		t.Errorf("lhs without a pattern = %v", out)
	}
}

// TestExploreLHSBytesMatchMapForm: the lhs route's typed groups encode to
// the bytes of the map form they replaced, for every CFD and pattern of a
// generated table (string and integer LHS values, dirty and clean groups).
func TestExploreLHSBytesMatchMapForm(t *testing.T) {
	sys := datasetSession(t, 400, 0.05)
	h := New(sys).Handler()
	ex, err := sys.Explore(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range ex.CFDs() {
		for p := range info.Patterns {
			groups, err := ex.LHSGroups(info.ID, p)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]map[string]any, 0, len(groups))
			for _, g := range groups {
				vals := make([]any, len(g.Values))
				for i, v := range g.Values {
					vals[i] = jsonValue(v)
				}
				out = append(out, map[string]any{
					"values":     vals,
					"tuples":     g.Tuples,
					"rhsValues":  g.RHSValues,
					"violations": g.Violations,
				})
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(map[string]any{"groups": out}); err != nil {
				t.Fatal(err)
			}
			rec := serve(h, fmt.Sprintf("/api/explore/customer/lhs?cfd=%s&pattern=%d", info.ID, p))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%s pattern %d: status %d\n got %.300s\nwant %.300s", info.ID, p, rec.Code, rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

func TestRepairReviewApplyFlow(t *testing.T) {
	ts := testServer(t)
	// Apply without a pending repair: conflict.
	do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusConflict)
	out := do(t, ts, "POST", "/api/repair/customer", "", http.StatusOK)
	if out["converged"] != true {
		t.Fatalf("repair = %v", out)
	}
	mods := out["modifications"].([]any)
	if len(mods) == 0 {
		t.Fatal("no modifications")
	}
	m := mods[0].(map[string]any)
	for _, k := range []string{"tuple", "attr", "old", "new", "cost", "cfd", "reason"} {
		if _, ok := m[k]; !ok {
			t.Errorf("modification missing %q: %v", k, m)
		}
	}
	out = do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusOK)
	if out["applied"].(float64) == 0 {
		t.Errorf("apply = %v", out)
	}
	// Detection is now clean.
	out = do(t, ts, "POST", "/api/detect/customer", "", http.StatusOK)
	if out["dirty"].(float64) != 0 {
		t.Errorf("dirty after apply = %v", out["dirty"])
	}
	// Second apply: pending consumed.
	do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusConflict)
}

// TestReloadDropsPendingRepair: a repair reviewed on a table does not apply
// to the table that replaced it, even one loaded from the same CSV.
func TestReloadDropsPendingRepair(t *testing.T) {
	ts := testServer(t)
	do(t, ts, "POST", "/api/repair/customer", "", http.StatusOK)
	do(t, ts, "POST", "/api/tables/customer", customersCSV, http.StatusOK)
	do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusConflict)
	out := do(t, ts, "POST", "/api/detect/customer", "", http.StatusOK)
	if out["dirty"].(float64) == 0 {
		t.Error("the reloaded table was repaired")
	}
}

// TestRepairApplyMixedCaseTable: table names are case-insensitive on every
// endpoint, the pending-repair key included.
func TestRepairApplyMixedCaseTable(t *testing.T) {
	ts := testServer(t)
	do(t, ts, "POST", "/api/repair/Customer", "", http.StatusOK)
	out := do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusOK)
	if out["applied"].(float64) == 0 {
		t.Errorf("apply = %v", out)
	}
	do(t, ts, "POST", "/api/repair/CUSTOMER/apply", "", http.StatusConflict)
}

func TestMonitorFlow(t *testing.T) {
	ts := testServer(t)
	// Repair + apply so the table is clean, then monitor cleansed.
	do(t, ts, "POST", "/api/repair/customer", "", http.StatusOK)
	do(t, ts, "POST", "/api/repair/customer/apply", "", http.StatusOK)
	out := do(t, ts, "POST", "/api/monitor/customer?cleansed=true", "", http.StatusOK)
	if out["dirty"].(float64) != 0 {
		t.Fatalf("monitor start = %v", out)
	}
	// Updates for a table that does not exist: not found.
	do(t, ts, "POST", "/api/monitor/other/updates", `{"updates":[]}`, http.StatusNotFound)
	// Updates for an existing table without a monitor: conflict.
	do(t, ts, "POST", "/api/tables/other", "A,B\nx,y\n", http.StatusOK)
	do(t, ts, "POST", "/api/monitor/other/updates", `{"updates":[]}`, http.StatusConflict)

	updates := map[string]any{"updates": []any{
		map[string]any{"op": "insert",
			"row": []any{"Zed", "US", "Edinburgh", "EH2 4SD", "Wrongstreet", 44, 131}},
	}}
	body, _ := json.Marshal(updates)
	out = do(t, ts, "POST", "/api/monitor/customer/updates", string(body), http.StatusOK)
	if out["dirty"].(float64) != 0 {
		t.Errorf("monitor left dirt: %v", out)
	}
	if len(out["repairs"].([]any)) < 2 {
		t.Errorf("repairs = %v", out["repairs"])
	}
	// set + delete round trip.
	id := int64(out["inserted"].([]any)[0].(float64))
	body, _ = json.Marshal(map[string]any{"updates": []any{
		map[string]any{"op": "set", "id": id, "attr": "NAME", "value": "Zed2"},
		map[string]any{"op": "delete", "id": id},
	}})
	out = do(t, ts, "POST", "/api/monitor/customer/updates", string(body), http.StatusOK)
	if out["dirty"].(float64) != 0 {
		t.Errorf("after delete = %v", out)
	}
	// Unknown op.
	body, _ = json.Marshal(map[string]any{"updates": []any{map[string]any{"op": "warp"}}})
	do(t, ts, "POST", "/api/monitor/customer/updates", string(body), http.StatusBadRequest)
}

func TestDiscoverEndpoint(t *testing.T) {
	ts := testServer(t)
	out := do(t, ts, "POST", "/api/discover/customer", `{"minSupport":2,"maxLHS":1}`, http.StatusOK)
	disc := out["discovered"].([]any)
	if len(disc) == 0 {
		t.Fatal("nothing discovered")
	}
	// The table is dirty (Joe has CC=44 with CNT=US), so [CC=44]->[CNT=UK]
	// must NOT be mined; [CNT=UK]->[CC=44] holds on all 3 UK rows.
	found, foundBad := false, false
	for _, d := range disc {
		text := d.(map[string]any)["text"].(string)
		if strings.Contains(text, "[CNT=UK] -> [CC=44]") {
			found = true
		}
		if strings.Contains(text, "[CC=44] -> [CNT=UK]") {
			foundBad = true
		}
	}
	if !found {
		t.Errorf("expected CNT=UK -> CC=44 among %v", disc)
	}
	if foundBad {
		t.Error("mined a rule the dirty data violates")
	}
	// The payload carries the snapshot version, the tuple count and the
	// per-candidate evidence.
	if v, ok := out["version"].(float64); !ok || v < 1 {
		t.Errorf("version = %v", out["version"])
	}
	if n := out["tuples"].(float64); n != 5 {
		t.Errorf("tuples = %v", n)
	}
	cands := out["candidates"].([]any)
	if len(cands) == 0 {
		t.Fatal("no candidates in payload")
	}
	for _, c := range cands {
		m := c.(map[string]any)
		if m["support"].(float64) <= 0 || m["confidence"].(float64) != 1.0 ||
			m["kind"].(string) == "" || m["text"].(string) == "" {
			t.Errorf("bad candidate %v", m)
		}
	}
	do(t, ts, "POST", "/api/discover/none", "{}", http.StatusNotFound)
}

// TestDiscoverEndpointCancellation pins the context propagation fix: a
// request whose context is already dead must not run the miner, and the
// handler maps the cancellation to 499 instead of 400.
func TestDiscoverEndpointCancellation(t *testing.T) {
	s := core.New()
	if _, err := s.LoadCSV("customer", strings.NewReader(customersCSV)); err != nil {
		t.Fatal(err)
	}
	sv := New(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/discover/customer", strings.NewReader("{}")).WithContext(ctx)
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("pre-cancelled discover returned %d (%s), want 499", rec.Code, rec.Body)
	}
	var out map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || out["error"] == "" {
		t.Errorf("cancellation error payload = %v (%v)", out, err)
	}
}

func TestJSONValueRoundTrip(t *testing.T) {
	// Values survive JSON encoding through an insert+read cycle.
	ts := testServer(t)
	do(t, ts, "POST", "/api/monitor/customer", "", http.StatusOK)
	body, _ := json.Marshal(map[string]any{"updates": []any{
		map[string]any{"op": "insert",
			"row": []any{"N", "FR", "Paris", "75001", "Rivoli", 33, 1.5}},
	}})
	out := do(t, ts, "POST", "/api/monitor/customer/updates", string(body), http.StatusOK)
	id := int64(out["inserted"].([]any)[0].(float64))
	tout := do(t, ts, "GET", fmt.Sprintf("/api/tables/customer?offset=5&limit=10"), "", http.StatusOK)
	rows := tout["rows"].([]any)
	var row []any
	for _, r := range rows {
		m := r.(map[string]any)
		if int64(m["id"].(float64)) == id {
			row = m["row"].([]any)
		}
	}
	if row == nil {
		t.Fatal("inserted row not found")
	}
	if row[5].(float64) != 33 || row[6].(float64) != 1.5 {
		t.Errorf("row = %v", row)
	}
}

// TestEveryRouteErrorContract walks all 23 routes twice, always with a body
// that is not JSON — naming a table that does not exist, then the table that
// does — and pins the error contract of docs/API.md: an unknown table
// is 404 on every route that names one, no malformed request is a 5xx, the
// status is one statusOf can produce, and every non-200 body is a JSON
// object with an "error" member.
func TestEveryRouteErrorContract(t *testing.T) {
	ts := testServer(t)
	routes := []struct {
		method, path string
		noTable      int // status when {t} is unknown
	}{
		{"GET", "/api/tables", http.StatusOK},             // names no table
		{"POST", "/api/tables/%s", http.StatusBadRequest}, // creates it; the body is no CSV
		{"GET", "/api/tables/%s", http.StatusNotFound},
		{"POST", "/api/tables/%s/rows", http.StatusNotFound},
		{"PATCH", "/api/tables/%s/rows/1", http.StatusNotFound},
		{"DELETE", "/api/tables/%s/rows/1", http.StatusNotFound},
		{"POST", "/api/cfds/%s", http.StatusBadRequest}, // the body is decoded first
		{"GET", "/api/cfds/%s", http.StatusNotFound},
		{"GET", "/api/consistency/%s", http.StatusNotFound},
		{"POST", "/api/detect/%s", http.StatusNotFound},
		{"GET", "/api/detect/%s", http.StatusNotFound},
		{"GET", "/api/detect/%s/sql", http.StatusNotFound},
		{"GET", "/api/audit/%s", http.StatusNotFound},
		{"GET", "/api/explore/%s/cfds", http.StatusNotFound},
		{"GET", "/api/explore/%s/patterns", http.StatusNotFound},
		{"GET", "/api/explore/%s/lhs", http.StatusNotFound},
		{"GET", "/api/explore/%s/map", http.StatusNotFound},
		{"GET", "/api/explore/%s/tuple/1", http.StatusNotFound},
		{"POST", "/api/repair/%s", http.StatusNotFound},
		{"POST", "/api/repair/%s/apply", http.StatusNotFound},
		{"POST", "/api/monitor/%s", http.StatusNotFound},
		{"POST", "/api/monitor/%s/updates", http.StatusNotFound},
		{"POST", "/api/discover/%s", http.StatusNotFound},
	}
	if len(routes) != 23 {
		t.Fatalf("walking %d routes, the mux has 23", len(routes))
	}
	documented := []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, statusClientClosedRequest}
	request := func(method, path string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{"text": `))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: status %d with a body that is not a JSON object: %v", method, path, resp.StatusCode, err)
		}
		if !slices.Contains(documented, resp.StatusCode) {
			t.Errorf("%s %s: status %d is not in the documented set %v", method, path, resp.StatusCode, documented)
		}
		if msg, _ := out["error"].(string); (resp.StatusCode != http.StatusOK) != (msg != "") {
			t.Errorf("%s %s: status %d with error member %q", method, path, resp.StatusCode, msg)
		}
		return resp.StatusCode, out
	}
	for _, rt := range routes {
		named := strings.Contains(rt.path, "%s")
		path := rt.path
		if named {
			path = fmt.Sprintf(rt.path, "ghost")
		}
		if status, out := request(rt.method, path); status != rt.noTable {
			t.Errorf("%s %s: status %d, want %d (%v)", rt.method, path, status, rt.noTable, out)
		}
		if named && rt.path != "/api/tables/%s" { // a malformed load would replace the table
			request(rt.method, fmt.Sprintf(rt.path, "customer"))
		}
	}
	// The malformed load above must not have registered anything.
	if status, _ := request("GET", "/api/tables/ghost"); status != http.StatusNotFound {
		t.Errorf("a refused load left table ghost behind (status %d)", status)
	}
}

// TestLoadReadsTheDeclaredLength: a CSV load that declares its length
// (Content-Length) reads the body into one buffer of that length, so serving
// it allocates within half a body of a bare relstore.ReadCSV of the same
// bytes, where a body of unknown length (ContentLength -1, as a chunked one
// arrives) doubles its buffer, at least half a body more, and still loads. A
// declared length the client never sends in full is a 400 that registers
// nothing, and what the server reserves follows what arrived.
func TestLoadReadsTheDeclaredLength(t *testing.T) {
	var csv bytes.Buffer
	if err := relstore.WriteCSV(datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1}).Clean, &csv); err != nil {
		t.Fatal(err)
	}
	body, h := csv.Bytes(), New(core.New()).Handler()
	allocated := func(load func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		load()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	serve := func(r io.Reader) uint64 {
		req, rec := httptest.NewRequest("POST", "/api/tables/customer", r), httptest.NewRecorder()
		got := allocated(func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tuples":20000`) {
			t.Fatalf("load (ContentLength %d): status %d: %s", req.ContentLength, rec.Code, rec.Body)
		}
		return got
	}
	bare := allocated(func() {
		if _, err := relstore.ReadCSV("customer", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	sized, chunked := serve(bytes.NewReader(body)), serve(struct{ io.Reader }{bytes.NewReader(body)})
	if !raceEnabled && (sized > bare+uint64(len(body))/2 || chunked < sized+uint64(len(body))/2) {
		t.Errorf("a %d-byte load allocated %d bytes with its length declared, %d without, %d bare: want declared <= bare + body/2 and undeclared >= declared + body/2",
			len(body), sized, chunked, bare)
	}

	ts := testServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/api/tables/chunked", struct{ io.Reader }{strings.NewReader(customersCSV)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("chunked load: status %d", resp.StatusCode)
	}
	do(t, ts, "GET", "/api/tables/chunked", "", http.StatusOK)

	// A body short of its Content-Length, over a raw connection: by 100
	// bytes, and by all but a few bytes of the largest length the server
	// reserves for. Each is a 400 that registers nothing, and the reservation
	// follows what arrived: the request allocates under a sixteenth of 16 MiB.
	for _, c := range []struct {
		name, body string
		declared   int
	}{{"short", customersCSV, len(customersCSV) + 100}, {"stalled", "NAME\nx\n", maxBodyBytes}} {
		got := allocated(func() {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST /api/tables/%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", c.name, c.declared, c.body)
			conn.(*net.TCPConn).CloseWrite()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]string
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || out["error"] == "" {
				t.Errorf("%s: a body short of its Content-Length: status %d, error %q; want 400 and an error", c.name, resp.StatusCode, out["error"])
			}
		})
		if got > maxBodyBytes/16 {
			t.Errorf("%s: %d bytes sent of %d declared allocated %d bytes, want <= %d", c.name, len(c.body), c.declared, got, maxBodyBytes/16)
		}
		do(t, ts, "GET", "/api/tables/"+c.name, "", http.StatusNotFound)
	}
}

// TestTablePaging: the table route pages with limit and offset, decoding
// the page only; a limit or offset that is no non-negative integer is a 400
// naming the value instead of a silent default.
func TestTablePaging(t *testing.T) {
	ts := testServer(t)
	for _, c := range []struct {
		query string
		ids   []float64 // the page's tuple ids
		bad   string    // the refused value, quoted
	}{
		{query: "", ids: []float64{0, 1, 2, 3, 4}},
		{query: "?limit=2", ids: []float64{0, 1}},
		{query: "?limit=2&offset=1", ids: []float64{1, 2}},
		{query: "?offset=4", ids: []float64{4}},
		{query: "?offset=5"},
		{query: "?offset=99&limit=3"},
		{query: "?limit=0"},
		{query: "?limit=9223372036854775807&offset=3", ids: []float64{3, 4}},
		{query: "?limit=&offset=", ids: []float64{0, 1, 2, 3, 4}},
		{query: "?limit=abc", bad: `"abc"`},
		{query: "?limit=-1", bad: `"-1"`},
		{query: "?offset=1.5", bad: `"1.5"`},
		{query: "?limit=1&offset=-2", bad: `"-2"`},
		{query: "?offset=99999999999999999999", bad: `"99999999999999999999"`},
	} {
		path := "/api/tables/customer" + c.query
		if c.bad != "" {
			out := do(t, ts, "GET", path, "", http.StatusBadRequest)
			if msg, _ := out["error"].(string); !strings.Contains(msg, c.bad) {
				t.Errorf("GET %s: error %q does not name %s", path, msg, c.bad)
			}
			continue
		}
		out := do(t, ts, "GET", path, "", http.StatusOK)
		var ids []float64
		rows, _ := out["rows"].([]any)
		for _, row := range rows {
			ids = append(ids, row.(map[string]any)["id"].(float64))
		}
		if !slices.Equal(ids, c.ids) || out["tuples"].(float64) != 5 {
			t.Errorf("GET %s: ids %v of %v tuples, want %v of 5", path, ids, out["tuples"], c.ids)
		}
	}
}

// TestMonitoredReadsMatchBatch: with a monitor active, detect, audit and the
// drill-down are served from the tracker's factorised report; their bodies
// are byte-identical to those a session without a monitor serves from
// batch detection, after the same edits.
func TestMonitoredReadsMatchBatch(t *testing.T) {
	ctx := context.Background()
	monitored, batch := datasetSession(t, 600, 0.05), datasetSession(t, 600, 0.05)
	if _, err := monitored.Monitor(ctx, "customer"); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.Semandaq{monitored, batch} {
		for i, id := range []relstore.TupleID{3, 40, 41, 200, 599} {
			if _, err := sys.SetCell("customer", id, "STR", types.NewString(fmt.Sprintf("typo %d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.SetCell("customer", 7, "CNT", types.NewString("US")); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Delete("customer", 12); err != nil {
			t.Fatal(err)
		}
	}
	duration := regexp.MustCompile(`"durationMs":[0-9.e+-]+`)
	targets := []string{
		"/api/detect/customer", "/api/detect/customer?engine=columnar", "/api/detect/customer?engine=native&limit=5",
		"/api/audit/customer", "/api/explore/customer/cfds", "/api/explore/customer/map",
		"/api/explore/customer/tuple/3", "/api/explore/customer/tuple/7", "/api/explore/customer/tuple/40",
	}
	for _, info := range datagen.StandardCFDs() {
		targets = append(targets, "/api/explore/customer/patterns?cfd="+info.ID)
		for p := range info.Tableau {
			targets = append(targets, fmt.Sprintf("/api/explore/customer/lhs?cfd=%s&pattern=%d", info.ID, p))
		}
	}
	hm, hb := New(monitored).Handler(), New(batch).Handler()
	for _, target := range targets {
		got, want := serve(hm, target), serve(hb, target)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s: status %d monitored, %d batch", target, got.Code, want.Code)
		}
		g, w := duration.ReplaceAll(got.Body.Bytes(), nil), duration.ReplaceAll(want.Body.Bytes(), nil)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: monitored body differs from the batch-served one\n got %.400s\nwant %.400s", target, g, w)
		}
	}
	tab, _ := monitored.Table("customer")
	if m, _ := monitored.ActiveMonitor("customer"); m == nil || m.Version() != tab.Version() {
		t.Fatal("the monitor does not track the table it served")
	}
}
