package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
)

// streamLines performs a streaming detect request and returns the decoded
// violation lines plus the terminal done line.
func streamLines(t *testing.T, url string) ([]map[string]any, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var viols []map[string]any
	var done map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e, ok := line["error"]; ok {
			t.Fatalf("stream error line: %v", e)
		}
		if d, ok := line["done"]; ok && d == true {
			done = line
			continue
		}
		viols = append(viols, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	return viols, done
}

// TestDetectStreamNDJSON covers the happy path on the small fixture: the
// streamed violation lines agree with the blocking endpoint's totals and
// the done line carries the count and duration.
func TestDetectStreamNDJSON(t *testing.T) {
	ts := testServer(t)
	blocking := do(t, ts, "POST", "/api/detect/customer?engine=parallel", "", http.StatusOK)
	if _, ok := blocking["durationMs"]; !ok {
		t.Error("blocking payload missing durationMs")
	}
	viols, done := streamLines(t, ts.URL+"/api/detect/customer?stream=1")
	if got, want := float64(len(viols)), blocking["violations"].(float64); got != want {
		t.Errorf("streamed %v violations, blocking reported %v", got, want)
	}
	if done["violations"].(float64) != float64(len(viols)) {
		t.Errorf("done line says %v, streamed %d", done["violations"], len(viols))
	}
	if _, ok := done["durationMs"]; !ok {
		t.Error("done line missing durationMs")
	}
}

// TestDetectStreamBadRequests: streaming requests that cannot start still
// fail with a real HTTP status instead of a 200 NDJSON error line.
func TestDetectStreamBadRequests(t *testing.T) {
	ts := testServer(t)
	for path, status := range map[string]int{
		"/api/detect/nope?stream=1":                 http.StatusNotFound,
		"/api/detect/customer?stream=1&cfds=ghost":  http.StatusBadRequest,
		"/api/detect/customer?stream=1&engine=warp": http.StatusBadRequest,
		"/api/detect/customer?stream=1&workers=-1":  http.StatusBadRequest,
	} {
		out := do(t, ts, "GET", path, "", status)
		if out["error"] == "" {
			t.Errorf("%s: no error payload", path)
		}
	}
}

// TestDetectGetRoute keeps the blocking GET route equivalent to POST.
func TestDetectGetRoute(t *testing.T) {
	ts := testServer(t)
	post := do(t, ts, "POST", "/api/detect/customer", "", http.StatusOK)
	get := do(t, ts, "GET", "/api/detect/customer", "", http.StatusOK)
	if post["violations"] != get["violations"] || post["dirty"] != get["dirty"] {
		t.Errorf("GET %v != POST %v", get, post)
	}
}

// TestDetectStreamScopedAndLimited exercises the cfds/limit parameters on
// the streaming endpoint.
func TestDetectStreamScopedAndLimited(t *testing.T) {
	ts := testServer(t)
	viols, _ := streamLines(t, ts.URL+"/api/detect/customer?stream=1&cfds=phi4")
	for _, v := range viols {
		if v["cfd"] != "phi4" {
			t.Errorf("scoped stream leaked violation for %v", v["cfd"])
		}
	}
	limited, done := streamLines(t, ts.URL+"/api/detect/customer?stream=1&limit=2")
	if len(limited) != 2 || done["violations"].(float64) != 2 {
		t.Errorf("limit=2 streamed %d violations (done %v)", len(limited), done["violations"])
	}
}

// canonicalize marshals violation payloads into a sorted string set for
// order-independent comparison.
func canonicalize(t *testing.T, ms []map[string]any) []string {
	t.Helper()
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

// TestDetectStreamMillionTuples is the acceptance scenario: on a 1M-tuple
// table, `curl -N .../detect?stream=1` sees the first NDJSON violation
// while the scan is still running, and the streamed violation set is
// byte-identical to the blocking report's.
func TestDetectStreamMillionTuples(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-tuple workload; skipped under -short")
	}
	// Noise is deliberately tiny: the scan cost (and the time to the
	// first streamed line) is set by the 1M-tuple table, while the noise
	// rate only scales the number of NDJSON lines written afterwards.
	ds := datagen.Generate(datagen.Config{Tuples: 1_000_000, Seed: 13, NoiseRate: 0.0005})
	sys := core.New()
	sys.RegisterTable(ds.Dirty)
	if err := sys.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys).Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/api/detect/customer?stream=1&workers=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var firstViolation time.Duration
	var streamed []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if d, ok := line["done"]; ok && d == true {
			break
		}
		if firstViolation == 0 {
			firstViolation = time.Since(start)
		}
		streamed = append(streamed, line)
	}
	total := time.Since(start)
	if len(streamed) == 0 {
		t.Fatal("no violations streamed")
	}
	// The first line must arrive while the scan is still running — far
	// from the end of the stream. Half the total duration is a very loose
	// bound; in practice the first violation lands within milliseconds
	// while the full pass takes orders of magnitude longer.
	if firstViolation > total/2 {
		t.Errorf("first violation after %v of %v total", firstViolation, total)
	}

	// Byte-identity with the blocking report, via the shared wire shaping.
	rep, err := sys.Detect(context.Background(), "customer", core.WithEngine(core.ParallelDetection))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]any, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		want = append(want, violationMap(v))
	}
	gotSet := canonicalize(t, streamed)
	wantSet := canonicalize(t, want)
	if !reflect.DeepEqual(gotSet, wantSet) {
		t.Errorf("streamed set (%d) differs from blocking report (%d)", len(gotSet), len(wantSet))
	}
}

// violationMap is a streamed violation's line as a map, the shape the
// stream encoded before its lines became structs: the reference for their
// bytes.
func violationMap(v detect.Violation) map[string]any {
	out := map[string]any{
		"cfd":   v.CFDID,
		"kind":  v.Kind.String(),
		"tuple": int64(v.TupleID),
		"attr":  v.Attr,
	}
	if v.Kind == detect.SingleTuple {
		out["pattern"] = v.Pattern
		out["expected"] = jsonValue(v.Expected)
		out["got"] = jsonValue(v.Got)
	} else {
		out["partners"] = v.Partners
	}
	return out
}

// datagenServer serves a 2 000-row datagen table at 5 % noise under the
// standard CFDs, whose report holds both kinds of violation.
func datagenServer(t *testing.T) (*core.Semandaq, http.Handler) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 3, NoiseRate: 0.05})
	sys := core.New()
	sys.RegisterTable(ds.Dirty)
	if err := sys.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	return sys, New(sys).Handler()
}

// TestStreamLinesEncodeAsMaps: every NDJSON violation line is byte for
// byte json.Marshal of violationMap, in the report's order.
func TestStreamLinesEncodeAsMaps(t *testing.T) {
	sys, h := datagenServer(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/detect/customer?stream=1", nil))
	rep, err := sys.Detect(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(rep.Violations)+1 {
		t.Fatalf("%d lines for %d violations", len(lines), len(rep.Violations))
	}
	kinds := map[detect.Kind]int{}
	for i, v := range rep.Violations {
		want, err := json.Marshal(violationMap(v))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lines[i], want) {
			t.Fatalf("line %d: %s, want %s", i, lines[i], want)
		}
		kinds[v.Kind]++
	}
	if kinds[detect.SingleTuple] == 0 || kinds[detect.MultiTuple] == 0 {
		t.Errorf("the report holds only one kind of violation: %v", kinds)
	}
}

// discardWriter is a flushable ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Flush()                      {}

// TestStreamAllocsPerRecord bounds what a streamed record costs the
// handler over a cached report: at most three allocations.
func TestStreamAllocsPerRecord(t *testing.T) {
	sys, h := datagenServer(t)
	d, err := sys.DetectDigest(context.Background(), "customer", core.WithEngine(core.SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/api/detect/customer?stream=1", nil)
	w := discardWriter{http.Header{}}
	allocs := testing.AllocsPerRun(3, func() { h.ServeHTTP(w, req) })
	per := allocs / float64(d.Violations)
	t.Logf("%.0f allocations for %d records: %.2f per record", allocs, d.Violations, per)
	if per > 3 {
		t.Errorf("%.0f allocations for %d records: %.2f per record, want at most 3", allocs, d.Violations, per)
	}
}
