package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"testing"

	"semandaq/internal/core"
)

// durationField is the one member of a discover body that differs between
// two encodings of one report.
var durationField = regexp.MustCompile(`"durationMs":\d+`)

func maskDuration(t *testing.T, b []byte) []byte {
	t.Helper()
	if !durationField.Match(b) {
		t.Fatalf("no durationMs in %.200s", b)
	}
	return durationField.ReplaceAll(b, []byte(`"durationMs":0`))
}

// TestDiscoverBodyMatchesMapForm pins the discover payload byte for byte,
// durationMs masked, against the map form it was encoded from before:
// one rule map per merged CFD and one candidate map per pattern. The
// session serves the handler's report again at the same version and
// options, so the map form encodes the very report the handler did.
func TestDiscoverBodyMatchesMapForm(t *testing.T) {
	sys := datasetSession(t, 2000, 0.05)
	h := New(sys).Handler()
	rec := post(h, "/api/discover/customer", `{"minSupport":20,"maxLHS":2}`)
	rep, err := sys.Discover(context.Background(), "customer", core.WithMinSupport(20), core.WithMaxLHS(2))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	out := make([]map[string]any, 0, len(rep.CFDs))
	for _, c := range rep.CFDs {
		out = append(out, map[string]any{"id": c.ID, "text": c.String()})
	}
	cands := make([]map[string]any, 0, len(rep.Candidates))
	for _, c := range rep.Candidates {
		kinds[c.Kind]++
		cands = append(cands, map[string]any{
			"text":       c.CFD.String(),
			"kind":       c.Kind,
			"support":    c.Support,
			"confidence": c.Confidence,
		})
	}
	for _, k := range []string{"constant", "global-fd", "conditional-fd"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s candidate among %v: the pin needs every kind", k, kinds)
		}
	}
	want := mapForm(map[string]any{
		"discovered": out,
		"candidates": cands,
		"version":    rep.Version,
		"tuples":     rep.Tuples,
		"durationMs": int64(0),
	})
	rec.Body = bytes.NewBuffer(maskDuration(t, rec.Body.Bytes()))
	sameResponse(t, "discover", rec, want)
}

// TestDiscoverWorkersCapped: a request's worker count is bounded by the
// cap policy, not spawned as asked — a billion workers is a 200 with the
// candidates two workers mine.
func TestDiscoverWorkersCapped(t *testing.T) {
	h := New(datasetSession(t, 2000, 0.05)).Handler()
	candidates := func(body string) json.RawMessage {
		t.Helper()
		rec := post(h, "/api/discover/customer", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", body, rec.Code, rec.Body)
		}
		var out struct {
			Candidates json.RawMessage `json:"candidates"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Candidates
	}
	huge, two := candidates(`{"workers":1000000000,"maxLHS":3}`), candidates(`{"workers":2,"maxLHS":3}`)
	if len(two) < 100 || !bytes.Equal(huge, two) {
		t.Fatalf("workers=1e9 mined\n%.300s\nworkers=2 mined\n%.300s", huge, two)
	}
}
