package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
)

// reportJSON is the wire oracle: the map the detect endpoint used to build
// from the flat report and hand to encoding/json. The streaming encoder
// must produce a response that decodes to exactly this.
func reportJSON(rep *detect.Report) map[string]any {
	perCFD := map[string]any{}
	for id, st := range rep.PerCFD {
		perCFD[id] = map[string]int{
			"singleTuple": st.SingleTuple,
			"multiTuple":  st.MultiTuple,
			"groups":      st.Groups,
		}
	}
	vio := map[string]int{}
	for id, n := range rep.Vio {
		vio[strconv.FormatInt(int64(id), 10)] = n
	}
	return map[string]any{
		"table":      rep.Table,
		"tuples":     rep.TupleCount,
		"version":    rep.Version,
		"violations": rep.TotalViolations(),
		"dirty":      len(rep.Vio),
		"maxVio":     rep.MaxVio(),
		"perCFD":     perCFD,
		"vio":        vio,
	}
}

// datasetSession registers a generated customer table with the standard
// CFDs in a fresh session.
func datasetSession(t testing.TB, tuples int, noise float64) *core.Semandaq {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Tuples: tuples, Seed: 17, NoiseRate: noise})
	sys := core.New()
	sys.RegisterTable(ds.Dirty)
	if err := sys.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// serve delivers one request to the handler in-process.
func serve(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

// rawField returns the bytes of a top-level member of a JSON object.
func rawField(t *testing.T, body []byte, key string) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("response is not a JSON object: %v", err)
	}
	return top[key]
}

// TestDetectWireOracle holds the streaming encoder to the oracle: for every
// engine name, across noise rates, limits and CFD scopes, the decoded
// response equals what reportJSON + encoding/json produce from the facade's
// flat report; perCFD is byte-identical across engines; vio's members run
// in ascending tuple-id order; and engine=native, an alias of columnar,
// answers columnar's bytes but for the request's own duration.
func TestDetectWireOracle(t *testing.T) {
	duration := regexp.MustCompile(`"durationMs":[0-9.e+-]+`)
	for _, noise := range []float64{0, 0.02, 0.05} {
		sys := datasetSession(t, 600, noise)
		h := New(sys).Handler()
		for _, query := range []string{"", "&limit=7", "&cfds=phi1,phi3", "&cfds=phi2&limit=1"} {
			var firstPerCFD []byte
			bodies := map[string][]byte{}
			for _, engine := range []string{"sql", "native", "columnar", "parallel"} {
				name := fmt.Sprintf("noise=%v engine=%s%s", noise, engine, query)
				rec := serve(h, "/api/detect/customer?engine="+engine+"&workers=2"+query)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
				}
				body := rec.Body.Bytes()
				if !json.Valid(body) || body[len(body)-1] != '\n' {
					t.Fatalf("%s: response is not one JSON value and a newline", name)
				}
				bodies[engine] = duration.ReplaceAll(body, nil)

				// The oracle: the flat report through the facade, same options.
				kind, err := core.ParseDetectorKind(engine)
				if err != nil {
					t.Fatal(err)
				}
				opts := []core.Option{core.WithEngine(kind), core.WithWorkers(2)}
				for _, kv := range strings.Split(strings.TrimPrefix(query, "&"), "&") {
					switch k, v, _ := strings.Cut(kv, "="); k {
					case "limit":
						n, _ := strconv.Atoi(v)
						opts = append(opts, core.WithLimit(n))
					case "cfds":
						opts = append(opts, core.WithCFDs(strings.Split(v, ",")...))
					}
				}
				rep, err := sys.Detect(context.Background(), "customer", opts...)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, err := json.Marshal(reportJSON(rep))
				if err != nil {
					t.Fatal(err)
				}
				var got, want map[string]any
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(wantBytes, &want); err != nil {
					t.Fatal(err)
				}
				if d, ok := got["durationMs"].(float64); !ok || d < 0 {
					t.Errorf("%s: durationMs = %v", name, got["durationMs"])
				}
				delete(got, "durationMs")
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: response differs from the oracle\ngot:  %v\nwant: %v", name, got, want)
				}

				// Byte-level layout: perCFD exactly as encoding/json writes it,
				// and therefore identical across engines.
				perCFD := rawField(t, body, "perCFD")
				if wantPer := rawField(t, wantBytes, "perCFD"); !bytes.Equal(perCFD, wantPer) {
					t.Errorf("%s: perCFD bytes %s, encoding/json writes %s", name, perCFD, wantPer)
				}
				if firstPerCFD == nil {
					firstPerCFD = perCFD
				} else if !bytes.Equal(perCFD, firstPerCFD) {
					t.Errorf("%s: perCFD %s differs from the sql engine's %s", name, perCFD, firstPerCFD)
				}

				// vio keys ascend numerically.
				dec := json.NewDecoder(bytes.NewReader(rawField(t, body, "vio")))
				if _, err := dec.Token(); err != nil { // {
					t.Fatal(err)
				}
				last := int64(-1)
				for dec.More() {
					key, err := dec.Token()
					if err != nil {
						t.Fatal(err)
					}
					id, err := strconv.ParseInt(key.(string), 10, 64)
					if err != nil || id <= last {
						t.Fatalf("%s: vio key %q after %d", name, key, last)
					}
					last = id
					if _, err := dec.Token(); err != nil { // the count
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(bodies["native"], bodies["columnar"]) {
				t.Errorf("noise=%v%s: engine=native answered\n%.400s\nengine=columnar\n%.400s", noise, query, bodies["native"], bodies["columnar"])
			}
		}
	}
}

// TestDetectWireEscapes pins the encoder's string path on names encoding/json
// would escape.
func TestDetectWireEscapes(t *testing.T) {
	for _, s := range []string{"customer", "", `a"b`, `back\slash`, "<tag>&", "tab\there", "naïve", "\x7f"} {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestDetectHandlerAllocsScaleWithGroups is the allocation gate of the
// factorised wire path: on a 100 %-dirty table a warm (cache-hit) GET
// allocates per request and per CFD, never per tuple — four times the
// tuples must cost nowhere near four times the allocations.
func TestDetectHandlerAllocsScaleWithGroups(t *testing.T) {
	allocsAt := func(tuples int) float64 {
		sys := datasetSession(t, tuples, 0.05)
		h := New(sys).Handler()
		target := "/api/detect/customer?engine=columnar"
		rec := serve(h, target)
		var out struct{ Tuples, Dirty int }
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Tuples != tuples || out.Dirty*10 < tuples*9 {
			t.Fatalf("workload is not dense: %d of %d tuples dirty", out.Dirty, out.Tuples)
		}
		req := httptest.NewRequest("GET", target, nil)
		w := &discard{hdr: http.Header{}}
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	}
	small, large := allocsAt(5_000), allocsAt(20_000)
	t.Logf("warm GET: %.0f allocs at 5k tuples, %.0f at 20k", small, large)
	if large >= 1.5*small {
		t.Errorf("warm GET allocations grow with the table: %.0f at 5k tuples, %.0f at 20k", small, large)
	}
	if large > 100 {
		t.Errorf("warm GET allocates %.0f objects at 20k dirty tuples; a per-tuple object would cost 20000", large)
	}
}

// discard is a ResponseWriter that drops the body, so the gate counts the
// handler's allocations and not a recorder's buffer growth.
type discard struct{ hdr http.Header }

func (d *discard) Header() http.Header         { return d.hdr }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
