// Package server exposes Semandaq over HTTP with a JSON API — the
// reproduction's stand-in for the paper's EJB data-quality servers plus the
// web-container data explorer. Every demo capability is an endpoint:
// specifying CFDs (with the satisfiability gate), SQL-based detection,
// auditing, exploration drill-down, repair with review, incremental
// monitoring, and discovery from reference data.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"semandaq/internal/core"
	"semandaq/internal/detect"
	"semandaq/internal/explore"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// Server is the HTTP facade over one Semandaq session. Monitors and
// candidate repairs live on the session's table records (core.Semandaq),
// so the HTTP mutation endpoints and any embedded library callers share
// one write path.
type Server struct {
	s *core.Semandaq
}

// New builds a server over the session.
func New(s *core.Semandaq) *Server { return &Server{s: s} }

// Handler returns the routed http.Handler.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/tables", sv.handleTables)
	mux.HandleFunc("POST /api/tables/{name}", sv.handleLoadCSV)
	mux.HandleFunc("GET /api/tables/{name}", sv.handleTable)
	// Row mutations. Writes route through the table's active monitor when
	// one exists (incremental detection sees them immediately) and return
	// the table version they produced; 409 while a monitor is being
	// replaced.
	mux.HandleFunc("POST /api/tables/{name}/rows", sv.handleInsertRow)
	mux.HandleFunc("PATCH /api/tables/{name}/rows/{id}", sv.handleSetCell)
	mux.HandleFunc("DELETE /api/tables/{name}/rows/{id}", sv.handleDeleteRow)
	mux.HandleFunc("POST /api/cfds/{table}", sv.handleRegisterCFDs)
	mux.HandleFunc("GET /api/cfds/{table}", sv.handleListCFDs)
	mux.HandleFunc("GET /api/consistency/{table}", sv.handleConsistency)
	// ?engine=sql|parallel|columnar (native: an alias of columnar)&workers=N&cfds=id1,id2&limit=K
	// — and &stream=1 switches to NDJSON streaming of the same report, one
	// violation per line in its canonical order.
	mux.HandleFunc("POST /api/detect/{table}", sv.handleDetect)
	mux.HandleFunc("GET /api/detect/{table}", sv.handleDetect) // curl -N friendly
	mux.HandleFunc("GET /api/detect/{table}/sql", sv.handleDetectSQL)
	mux.HandleFunc("GET /api/audit/{table}", sv.handleAudit)
	mux.HandleFunc("GET /api/explore/{table}/cfds", sv.handleExploreCFDs)
	mux.HandleFunc("GET /api/explore/{table}/patterns", sv.handleExplorePatterns)
	mux.HandleFunc("GET /api/explore/{table}/lhs", sv.handleExploreLHS)
	mux.HandleFunc("GET /api/explore/{table}/map", sv.handleExploreMap)
	mux.HandleFunc("GET /api/explore/{table}/tuple/{id}", sv.handleExploreTuple)
	mux.HandleFunc("POST /api/repair/{table}", sv.handleRepair)
	mux.HandleFunc("POST /api/repair/{table}/apply", sv.handleRepairApply)
	mux.HandleFunc("POST /api/monitor/{table}", sv.handleMonitorStart)
	mux.HandleFunc("POST /api/monitor/{table}/updates", sv.handleMonitorUpdates)
	mux.HandleFunc("POST /api/discover/{table}", sv.handleDiscover)
	return recoverJSON(mux)
}

// guardPool recycles recoverJSON's response wrappers: serving a request
// allocates nothing for them.
var guardPool = sync.Pool{New: func() any { return new(guardWriter) }}

// guardWriter notes whether the handler has written anything yet.
type guardWriter struct {
	http.ResponseWriter
	wrote bool
}

func (g *guardWriter) WriteHeader(code int)        { g.wrote = true; g.ResponseWriter.WriteHeader(code) }
func (g *guardWriter) Write(p []byte) (int, error) { g.wrote = true; return g.ResponseWriter.Write(p) }
func (g *guardWriter) Flush() {
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		g.wrote = true
		f.Flush()
	}
}

// recoverJSON is the recover middleware: a handler panic is logged and
// answered 500 with a JSON error body, or — when the handler has already
// written — aborts the response, and the server goes on serving.
func recoverJSON(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := guardPool.Get().(*guardWriter)
		g.ResponseWriter, g.wrote = w, false
		defer func() {
			wrote := g.wrote
			g.ResponseWriter = nil
			guardPool.Put(g)
			if p := recover(); p != nil {
				if p != http.ErrAbortHandler {
					log.Printf("semandaq: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				}
				if wrote || p == http.ErrAbortHandler {
					panic(http.ErrAbortHandler)
				}
				writeError(w, errInternal)
			}
		}()
		h.ServeHTTP(g, r)
	})
}

// statusClientClosedRequest is the nginx 499 convention: the client went
// away and the request's work was cancelled server-side.
const statusClientClosedRequest = 499

// maxBodyBytes caps every request body the server reads — a CSV load or a
// JSON document — so no client can make it buffer or ingest without bound;
// a longer body is a 413 (statusOf) and changes nothing.
const maxBodyBytes = 16 << 20

// decodeJSON decodes r's body, read through the body limit, into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// errInternal answers a request whose handler panicked.
var errInternal = errors.New("internal error")

// statusOf is the one place an error becomes an HTTP status: what the
// request named does not exist (404), the table is not in the state the
// request needs — retry or set it up first (409), the body is over
// maxBodyBytes (413), the client went away (499), the server failed (500);
// anything else is a malformed or unsatisfiable request (400).
func statusOf(err error) int {
	switch {
	case errors.Is(err, errInternal):
		return http.StatusInternalServerError
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrNoTable), errors.Is(err, explore.ErrNoTuple):
		return http.StatusNotFound
	case errors.Is(err, core.ErrNoCFDs), errors.Is(err, core.ErrNoMonitor),
		errors.Is(err, core.ErrMonitorBusy), errors.Is(err, core.ErrNoPendingRepair):
		return http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	default: // core.ErrUnknownCFD, bad parameters, undecodable bodies, unsatisfiable CFD sets
		return http.StatusBadRequest
	}
}

// writeError writes the JSON error payload under the error's status.
func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// jsonValue converts a types.Value to its JSON representation.
func jsonValue(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	default:
		return v.Str()
	}
}

func jsonRow(row relstore.Tuple) []any {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = jsonValue(v)
	}
	return out
}

func (sv *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"tables": sv.s.Tables()})
}

// handleLoadCSV reads a body of declared length into a buffer of that
// length, reserved in steps that follow what has arrived (relstore's
// readBody); the server stops the body there, so the buffer is at most
// maxBodyBytes. A body of unknown length (chunked) doubles as it reads.
func (sv *Server) handleLoadCSV(w http.ResponseWriter, r *http.Request) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		body = relstore.Sized{Reader: body, N: int(n)}
	}
	tab, err := sv.s.LoadCSV(r.PathValue("name"), body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"table":  tab.Schema().Name,
		"attrs":  tab.Schema().AttrNames(),
		"tuples": tab.Len(),
	})
}

// intParam reads the non-negative integer query parameter name: def when it
// is absent or empty, an error naming the value when it is no such integer.
func intParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	if n, err := strconv.Atoi(s); err == nil && n >= 0 {
		return n, nil
	}
	return 0, fmt.Errorf("bad %s value %q", name, s)
}

// handleTable serves one page of the table, ?limit=100&offset=0 by default:
// only the page's rows are decoded.
func (sv *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	tab, err := sv.s.Table(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	limit, err := intParam(r.URL.Query(), "limit", 100)
	offset, oerr := intParam(r.URL.Query(), "offset", 0)
	if err := errors.Join(err, oerr); err != nil {
		writeError(w, err)
		return
	}
	type rowOut struct {
		ID  int64 `json:"id"`
		Row []any `json:"row"`
	}
	// One pinned snapshot: the page, the tuple count and the version all
	// describe the same table state.
	snap := tab.Snapshot()
	offset = min(offset, snap.Len())
	end := offset + min(limit, snap.Len()-offset)
	var rows []rowOut
	for i := offset; i < end; i++ {
		rows = append(rows, rowOut{ID: int64(snap.IDs()[i]), Row: jsonRow(snap.Row(i))})
	}
	writeJSON(w, map[string]any{
		"table":   snap.Schema().Name,
		"attrs":   snap.Schema().AttrNames(),
		"tuples":  snap.Len(),
		"version": snap.Version(),
		"rows":    rows,
	})
}

func (sv *Server) handleRegisterCFDs(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	var body struct {
		Text string `json:"text"`
	}
	if err := decodeJSON(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	cfds, err := sv.s.RegisterCFDText(table, body.Text)
	if err != nil {
		writeError(w, err)
		return
	}
	var out []map[string]any
	for _, c := range cfds {
		out = append(out, map[string]any{"id": c.ID, "cfd": c.String()})
	}
	writeJSON(w, map[string]any{"registered": out})
}

func (sv *Server) handleListCFDs(w http.ResponseWriter, r *http.Request) {
	if _, err := sv.s.Table(r.PathValue("table")); err != nil {
		writeError(w, err)
		return
	}
	cfds := sv.s.CFDs(r.PathValue("table"))
	var out []map[string]any
	for _, c := range cfds {
		out = append(out, map[string]any{
			"id":       c.ID,
			"lhs":      c.LHS,
			"rhs":      c.RHS,
			"patterns": len(c.Tableau),
			"text":     c.String(),
		})
	}
	writeJSON(w, map[string]any{"cfds": out})
}

func (sv *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	rep, err := sv.s.CheckConsistency(r.PathValue("table"), nil)
	if err != nil {
		writeError(w, err)
		return
	}
	out := map[string]any{"satisfiable": rep.Satisfiable}
	if rep.Conflict != nil {
		out["conflict"] = rep.Conflict.String()
	}
	writeJSON(w, out)
}

// detectOptions maps the detect endpoint's query parameters onto request
// options. The engine defaults to the paper's SQL technique (the original
// endpoint contract), streamed or not, so a stream after a blocking read
// of the same version reads the cached report.
func detectOptions(r *http.Request) ([]core.Option, error) {
	q := r.URL.Query()
	kind := core.SQLDetection
	if e := q.Get("engine"); e != "" {
		var err error
		if kind, err = core.ParseDetectorKind(e); err != nil {
			return nil, err
		}
	}
	opts := []core.Option{core.WithEngine(kind)}
	workers, err := intParam(q, "workers", -1)
	limit, lerr := intParam(q, "limit", -1)
	if err := errors.Join(err, lerr); err != nil {
		return nil, err
	}
	if workers >= 0 {
		opts = append(opts, core.WithWorkers(workers)) // request-scoped; does not touch the shared session
	}
	if ids := q.Get("cfds"); ids != "" {
		opts = append(opts, core.WithCFDs(strings.Split(ids, ",")...))
	}
	if limit >= 0 {
		opts = append(opts, core.WithLimit(limit))
	}
	return opts, nil
}

// bufPool recycles the detect response buffers: a dense report's vio(t)
// runs to hundreds of kilobytes, which is not worth regrowing per request.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendJSONString appends s as a JSON string. Table names and CFD ids are
// almost always plain ASCII, which is appended as is; anything encoding/json
// would escape goes through it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendDetectJSON appends the detect response for a digest: the object
// encoding/json would produce for the equivalent map — members in key
// order, perCFD by CFD id — except that vio's members run in ascending
// tuple-id order instead of the order of their decimal strings. It walks
// the digest's id and vio(t) vectors directly: no per-tuple key string, no
// intermediate map, no sort.
func appendDetectJSON(b []byte, d *detect.Digest, durationMs float64) []byte {
	num := func(key string, n int64) {
		b = strconv.AppendInt(append(b, key...), n, 10)
	}
	// One growth instead of a doubling ladder: a vio member is a quoted id,
	// a colon, a count and a comma.
	b = slices.Grow(b, 256+96*len(d.PerCFD)+20*d.Dirty)
	num(`{"dirty":`, int64(d.Dirty))
	b = strconv.AppendFloat(append(b, `,"durationMs":`...), durationMs, 'f', -1, 64)
	num(`,"maxVio":`, int64(d.MaxVio))
	b = append(b, `,"perCFD":{`...)
	ids := make([]string, 0, len(d.PerCFD))
	for id := range d.PerCFD {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		st := d.PerCFD[id]
		b = appendJSONString(b, id)
		num(`:{"groups":`, int64(st.Groups))
		num(`,"multiTuple":`, int64(st.MultiTuple))
		num(`,"singleTuple":`, int64(st.SingleTuple))
		b = append(b, '}')
	}
	b = appendJSONString(append(b, `},"table":`...), d.Table)
	num(`,"tuples":`, int64(d.TupleCount))
	num(`,"version":`, d.Version)
	b = append(b, `,"vio":{`...)
	sep := `"`
	for i, n := range d.Vio {
		if n != 0 {
			num(sep, int64(d.IDs[i]))
			num(`":`, int64(n))
			sep = `,"`
		}
	}
	num(`},"violations":`, int64(d.Violations))
	return append(b, '}', '\n')
}

// singleJSON and multiJSON are the NDJSON lines of a streamed single- and
// multi-tuple violation. Their fields are in key order, as encoding/json
// writes a map's keys.
type singleJSON struct {
	Attr     string `json:"attr"`
	CFD      string `json:"cfd"`
	Expected any    `json:"expected"`
	Got      any    `json:"got"`
	Kind     string `json:"kind"`
	Pattern  int    `json:"pattern"`
	Tuple    int64  `json:"tuple"`
}

type multiJSON struct {
	Attr     string `json:"attr"`
	CFD      string `json:"cfd"`
	Kind     string `json:"kind"`
	Partners int    `json:"partners"`
	Tuple    int64  `json:"tuple"`
}

func (sv *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	opts, err := detectOptions(r)
	if err != nil {
		writeError(w, err)
		return
	}
	table := r.PathValue("table")
	start := time.Now()
	if s := r.URL.Query().Get("stream"); s == "1" || s == "true" {
		sv.streamDetect(w, r, table, opts, start)
		return
	}
	d, err := sv.s.DetectDigest(r.Context(), table, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	buf := bufPool.Get().(*[]byte)
	*buf = appendDetectJSON((*buf)[:0], d, float64(time.Since(start))/float64(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf) // a failed write means the client went away
	bufPool.Put(buf)
}

// streamDetect writes the detection stream as NDJSON: one violation object
// per line in the report's canonical order, flushed eagerly so a `curl -N`
// client sees the first lines at once, and a terminal {"done":true,...}
// line with the totals and the pinned table version the whole stream
// evaluated. Request and detection errors come before the 200; a dropped
// client ends the stream via the request context.
func (sv *Server) streamDetect(w http.ResponseWriter, r *http.Request, table string, opts []core.Option, start time.Time) {
	seq, version, err := sv.s.DetectStreamVersion(r.Context(), table, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	count := 0
	// One line value of each kind, refilled per record.
	var single singleJSON
	var multi multiJSON
	for v, err := range seq {
		if err != nil {
			// Mid-stream errors ride on a line of their own: the status
			// header is long gone.
			enc.Encode(map[string]any{"error": err.Error()})
			return
		}
		var line any = &multi
		if v.Kind == detect.SingleTuple {
			single = singleJSON{Attr: v.Attr, CFD: v.CFDID, Expected: jsonValue(v.Expected), Got: jsonValue(v.Got),
				Kind: v.Kind.String(), Pattern: v.Pattern, Tuple: int64(v.TupleID)}
			line = &single
		} else {
			multi = multiJSON{Attr: v.Attr, CFD: v.CFDID, Kind: v.Kind.String(), Partners: v.Partners, Tuple: int64(v.TupleID)}
		}
		if enc.Encode(line) != nil {
			return // client went away
		}
		count++
		// Eager flushing keeps the stream live without a syscall per
		// line: the first lines go out immediately, then batches.
		if flusher != nil && (count <= 16 || count%256 == 0) {
			flusher.Flush()
		}
	}
	enc.Encode(map[string]any{
		"done":       true,
		"violations": count,
		"version":    version,
		"durationMs": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (sv *Server) handleDetectSQL(w http.ResponseWriter, r *http.Request) {
	stmts, err := sv.s.DetectionSQL(r.PathValue("table"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"sql": stmts})
}

func (sv *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	a, err := sv.s.Audit(r.Context(), r.PathValue("table"))
	if err != nil {
		writeError(w, err)
		return
	}
	attrs := make([]map[string]any, 0, len(a.Attrs))
	for _, q := range a.Attrs {
		attrs = append(attrs, map[string]any{
			"attr":        q.Attr,
			"pctVerified": q.PctVerified(),
			"pctProbably": q.PctProbably(),
			"pctArguably": q.PctArguably(),
			"dirty":       q.Dirty,
		})
	}
	pie := make([]map[string]any, 0, len(a.Pie))
	for _, s := range a.Pie {
		pie = append(pie, map[string]any{"cfd": s.CFDID, "violations": s.Violations})
	}
	writeJSON(w, map[string]any{
		"table":         a.Table,
		"tuples":        a.TupleCount,
		"version":       a.Version,
		"verifiedClean": a.VerifiedTuples,
		"probablyClean": a.ProbablyTuples,
		"arguablyClean": a.ArguablyTuples,
		"dirty":         a.DirtyTuples,
		"attrs":         attrs,
		"pie":           pie,
		"stats": map[string]any{
			"totalVio": a.Stats.TotalVio,
			"minVio":   a.Stats.MinVio,
			"maxVio":   a.Stats.MaxVio,
			"avgVio":   a.Stats.AvgVio,
			"groups":   a.Stats.Groups,
			"avgGroup": a.Stats.AvgGroup,
		},
		"text": a.Render(),
	})
}

func (sv *Server) explorer(r *http.Request) (*explore.Explorer, error) {
	return sv.s.Explore(r.Context(), r.PathValue("table"))
}

func (sv *Server) handleExploreCFDs(w http.ResponseWriter, r *http.Request) {
	ex, err := sv.explorer(r)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"cfds": ex.CFDs()})
}

func (sv *Server) handleExplorePatterns(w http.ResponseWriter, r *http.Request) {
	ex, err := sv.explorer(r)
	if err != nil {
		writeError(w, err)
		return
	}
	pats, err := ex.Patterns(r.URL.Query().Get("cfd"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"patterns": pats})
}

func (sv *Server) handleExploreLHS(w http.ResponseWriter, r *http.Request) {
	ex, err := sv.explorer(r)
	if err != nil {
		writeError(w, err)
		return
	}
	pattern := 0
	if ps := r.URL.Query().Get("pattern"); ps != "" {
		if pattern, err = strconv.Atoi(ps); err != nil {
			writeError(w, fmt.Errorf("bad pattern value %q", ps))
			return
		}
	}
	groups, err := ex.LHSGroups(r.URL.Query().Get("cfd"), pattern)
	if err != nil {
		writeError(w, err)
		return
	}
	// Fields in the alphabetical order encoding/json gives map keys, so the
	// bytes are those of the map form this struct replaced.
	type group struct {
		RHSValues  int   `json:"rhsValues"`
		Tuples     int   `json:"tuples"`
		Values     []any `json:"values"`
		Violations int   `json:"violations"`
	}
	out := make([]group, 0, len(groups))
	for _, g := range groups {
		vals := make([]any, len(g.Values))
		for i, v := range g.Values {
			vals[i] = jsonValue(v)
		}
		out = append(out, group{RHSValues: g.RHSValues, Tuples: g.Tuples, Values: vals, Violations: g.Violations})
	}
	writeJSON(w, map[string]any{"groups": out})
}

func (sv *Server) handleExploreMap(w http.ResponseWriter, r *http.Request) {
	ex, err := sv.explorer(r)
	if err != nil {
		writeError(w, err)
		return
	}
	entries, hist := ex.QualityMap()
	out := make([]map[string]any, 0, len(entries))
	for _, e := range entries {
		out = append(out, map[string]any{
			"id": int64(e.ID), "vio": e.Vio, "bucket": e.Bucket,
		})
	}
	writeJSON(w, map[string]any{"map": out, "histogram": hist})
}

func (sv *Server) handleExploreTuple(w http.ResponseWriter, r *http.Request) {
	ex, err := sv.explorer(r)
	if err != nil {
		writeError(w, err)
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("bad tuple id: %w", err))
		return
	}
	rels, err := ex.ForTuple(relstore.TupleID(id))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]map[string]any, 0, len(rels))
	for _, rel := range rels {
		out = append(out, map[string]any{
			"cfd":      rel.CFDID,
			"pattern":  rel.Pattern,
			"text":     rel.Text,
			"violated": rel.Violated,
			"kind":     rel.Kind.String(),
		})
	}
	writeJSON(w, map[string]any{"relevant": out})
}

// modWire is a modification's review form, its fields in the key order of
// the map encoding/json would write for it.
type modWire struct {
	Alternatives []altWire `json:"alternatives"`
	Attr         string    `json:"attr"`
	CFD          string    `json:"cfd"`
	Cost         float64   `json:"cost"`
	New          any       `json:"new"`
	Old          any       `json:"old"`
	Reason       string    `json:"reason"`
	Tuple        int64     `json:"tuple"`
}

type altWire struct {
	Cost  float64 `json:"cost"`
	Value any     `json:"value"`
}

// modsWire shapes modifications for review, their alternatives in one
// backing array.
func modsWire(ms []repair.Modification) []modWire {
	n := 0
	for _, m := range ms {
		n += len(m.Alternatives)
	}
	out, alts := make([]modWire, len(ms)), make([]altWire, 0, n)
	for i, m := range ms {
		for _, a := range m.Alternatives {
			alts = append(alts, altWire{Cost: a.Cost, Value: jsonValue(a.Value)})
		}
		out[i] = modWire{Alternatives: alts[len(alts)-len(m.Alternatives) : len(alts) : len(alts)], Attr: m.Attr,
			CFD: m.CFDID, Cost: m.Cost, New: jsonValue(m.New), Old: jsonValue(m.Old), Reason: m.Reason, Tuple: int64(m.TupleID)}
	}
	return out
}

// handleRepair computes a candidate repair for review; the session keeps
// its modifications as the table's pending repair, which the apply route
// applies.
func (sv *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	res, err := sv.s.Repair(r.Context(), r.PathValue("table"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, struct {
		Converged     bool      `json:"converged"`
		Cost          float64   `json:"cost"`
		Modifications []modWire `json:"modifications"`
		Passes        int       `json:"passes"`
		Remaining     int       `json:"remaining"`
	}{res.Converged, res.Cost, modsWire(res.Modifications), res.Passes, res.Remaining})
}

// handleRepairApply applies the table's pending repair. A 409 while a
// monitor is being replaced leaves it pending, so a retry needs no new
// repair.
func (sv *Server) handleRepairApply(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	applied, skipped, err := sv.s.ApplyPendingRepair(table)
	if errors.Is(err, core.ErrNoPendingRepair) {
		err = fmt.Errorf("%w; POST /api/repair/%s first", err, table)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, struct {
		Applied int       `json:"applied"`
		Skipped []modWire `json:"skipped"`
	}{applied, modsWire(skipped)})
}

func (sv *Server) handleMonitorStart(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	cleansed := r.URL.Query().Get("cleansed") == "true"
	// Monitor registers itself in the session: mutations route through it
	// from here on. A concurrent start of the same table's monitor gets
	// 409 instead of racing the handover.
	m, err := sv.s.Monitor(r.Context(), table, core.WithCleansed(cleansed))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"monitoring": table,
		"cleansed":   cleansed,
		"dirty":      m.DirtyCount(),
		"version":    m.Version(),
	})
}

// updateJSON is the wire form of one monitor update.
type updateJSON struct {
	Op    string `json:"op"` // insert | delete | set
	Row   []any  `json:"row,omitempty"`
	ID    int64  `json:"id,omitempty"`
	Attr  string `json:"attr,omitempty"`
	Value any    `json:"value,omitempty"`
}

// valueFromJSON maps a decoded JSON value to a types.Value without schema
// context. JSON numbers arrive as float64; integral ones become Int (the
// only reasonable guess for an untyped column — JSON cannot distinguish 5
// from 5.0).
func valueFromJSON(v any) types.Value {
	switch x := v.(type) {
	case nil:
		return types.Null
	case bool:
		return types.NewBool(x)
	case float64:
		if x == float64(int64(x)) {
			return types.NewInt(int64(x))
		}
		return types.NewFloat(x)
	case string:
		return types.NewString(x)
	default:
		return types.NewString(fmt.Sprint(x))
	}
}

// valueForAttr coerces a decoded JSON value using the attribute's declared
// type, falling back to valueFromJSON's inference for untyped columns.
// Without this, JSON 5.0 sent to a FLOAT column would silently become
// Int(5) and flip the cell's kind, breaking Equal comparisons against the
// column's other values.
func valueForAttr(sc *schema.Relation, pos int, v any) types.Value {
	if v == nil {
		return types.Null
	}
	switch sc.Attrs[pos].Type {
	case types.KindFloat:
		switch x := v.(type) {
		case float64:
			return types.NewFloat(x)
		case bool:
			// fall through to inference below
		case string:
			if f, err := strconv.ParseFloat(x, 64); err == nil {
				return types.NewFloat(f)
			}
		}
	case types.KindInt:
		switch x := v.(type) {
		case float64:
			if x == float64(int64(x)) {
				return types.NewInt(int64(x))
			}
			return types.NewFloat(x) // non-integral: keep the value, not the type
		case string:
			if n, err := strconv.ParseInt(x, 10, 64); err == nil {
				return types.NewInt(n)
			}
		}
	case types.KindString:
		if x, ok := v.(string); ok {
			return types.NewString(x)
		}
	case types.KindBool:
		if x, ok := v.(bool); ok {
			return types.NewBool(x)
		}
	}
	return valueFromJSON(v)
}

// updateFor decodes one wire update into a monitor update, coercing its
// values to the declared types of the schema's attributes (valueForAttr).
// It is the one decoding of the row routes and the updates route, and it
// checks only the op: the session validates the batch it lands, arity and
// attribute names included.
func updateFor(sc *schema.Relation, u updateJSON) (monitor.Update, error) {
	switch u.Op {
	case "insert":
		row := make(relstore.Tuple, len(u.Row))
		for i, v := range u.Row[:min(len(u.Row), sc.Arity())] {
			row[i] = valueForAttr(sc, i, v)
		}
		return monitor.Update{Op: monitor.OpInsert, Row: row}, nil
	case "delete":
		return monitor.Update{Op: monitor.OpDelete, ID: relstore.TupleID(u.ID)}, nil
	case "set":
		val := valueFromJSON(u.Value)
		if pos, ok := sc.Pos(u.Attr); ok {
			val = valueForAttr(sc, pos, u.Value)
		}
		return monitor.Update{Op: monitor.OpSet, ID: relstore.TupleID(u.ID), Attr: u.Attr, Value: val}, nil
	}
	return monitor.Update{}, fmt.Errorf("unknown op %q", u.Op)
}

// rowUpdate decodes a row route's request into its update: the op is the
// route's, the tuple id the path's, and the body (none for a delete) is
// the update's wire form — {"row": [...]} or {"attr": ..., "value": ...}.
func (sv *Server) rowUpdate(w http.ResponseWriter, r *http.Request, op string) (monitor.Update, error) {
	tab, err := sv.s.Table(r.PathValue("name"))
	if err != nil {
		return monitor.Update{}, err
	}
	var u updateJSON
	if op != "delete" {
		body := new(updateJSON) // apart from u, so that a delete allocates none
		if err := decodeJSON(w, r, body); err != nil {
			return monitor.Update{}, err
		}
		u = *body
	}
	u.Op = op
	if op != "insert" {
		if u.ID, err = strconv.ParseInt(r.PathValue("id"), 10, 64); err != nil {
			return monitor.Update{}, fmt.Errorf("bad tuple id: %w", err)
		}
	}
	return updateFor(tab.Schema(), u)
}

func (sv *Server) handleInsertRow(w http.ResponseWriter, r *http.Request) {
	u, err := sv.rowUpdate(w, r, "insert")
	if err != nil {
		writeError(w, err)
		return
	}
	id, version, err := sv.s.Insert(r.PathValue("name"), u.Row)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": int64(id), "version": version})
}

func (sv *Server) handleSetCell(w http.ResponseWriter, r *http.Request) {
	u, err := sv.rowUpdate(w, r, "set")
	if err != nil {
		writeError(w, err)
		return
	}
	version, err := sv.s.SetCell(r.PathValue("name"), u.ID, u.Attr, u.Value)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": int64(u.ID), "version": version})
}

func (sv *Server) handleDeleteRow(w http.ResponseWriter, r *http.Request) {
	u, err := sv.rowUpdate(w, r, "delete")
	if err != nil {
		writeError(w, err)
		return
	}
	version, err := sv.s.Delete(r.PathValue("name"), u.ID)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"deleted": int64(u.ID), "version": version})
}

func (sv *Server) handleMonitorUpdates(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	tab, err := sv.s.Table(table)
	if err != nil {
		writeError(w, err)
		return
	}
	var body struct {
		Updates []updateJSON `json:"updates"`
	}
	if err := decodeJSON(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	batch := make([]monitor.Update, len(body.Updates))
	for i, u := range body.Updates {
		if batch[i], err = updateFor(tab.Schema(), u); err != nil {
			writeError(w, err)
			return
		}
	}
	res, err := sv.s.ApplyUpdates(table, batch)
	if errors.Is(err, core.ErrNoMonitor) {
		err = fmt.Errorf("%w %s; POST /api/monitor/%s first", err, table, table)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, struct {
		Dirty    int                `json:"dirty"`
		Inserted []relstore.TupleID `json:"inserted"` // [] when none, never null
		Repairs  []modWire          `json:"repairs"`
		Version  int64              `json:"version"`
	}{res.Dirty, append([]relstore.TupleID{}, res.Inserted...), modsWire(res.Repairs), res.Version})
}

// handleDiscover runs the lattice miner over the table. The request
// context is threaded into the search, so a client that disconnects
// mid-mine cancels the lattice workers instead of leaving them running.
// Body (all fields optional; non-positive selects the discovery default):
//
//	{"minSupport": 100, "maxLHS": 3, "minConfidence": 0.95,
//	 "maxPatterns": 8, "workers": 4}
//
// The response carries the snapshot version the rules were mined from,
// per-candidate support and confidence, and the merged registrable set.
func (sv *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	var body struct {
		MinSupport    int     `json:"minSupport"`
		MaxLHS        int     `json:"maxLHS"`
		MinConfidence float64 `json:"minConfidence"`
		MaxPatterns   int     `json:"maxPatterns"`
		Workers       int     `json:"workers"`
	}
	if r.Body != nil { // defaults on an empty or malformed body, not on an oversized one
		if err := decodeJSON(w, r, &body); errors.As(err, new(*http.MaxBytesError)) {
			writeError(w, err)
			return
		}
	}
	start := time.Now()
	rep, err := sv.s.Discover(r.Context(), table,
		core.WithMinSupport(body.MinSupport),
		core.WithMaxLHS(body.MaxLHS),
		core.WithMinConfidence(body.MinConfidence),
		core.WithMaxPatterns(body.MaxPatterns),
		core.WithWorkers(body.Workers))
	if err != nil {
		writeError(w, err)
		return
	}
	// Fields in key order: the bytes a map would encode, without reflecting
	// over a map per rule.
	type rule struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	type candidate struct {
		Confidence float64 `json:"confidence"`
		Kind       string  `json:"kind"`
		Support    int     `json:"support"`
		Text       string  `json:"text"`
	}
	out := make([]rule, len(rep.CFDs))
	for i, c := range rep.CFDs {
		out[i] = rule{c.ID, c.String()}
	}
	cands := make([]candidate, len(rep.Candidates))
	for i, c := range rep.Candidates {
		cands[i] = candidate{c.Confidence, c.Kind, c.Support, c.CFD.String()}
	}
	writeJSON(w, struct {
		Candidates []candidate `json:"candidates"`
		Discovered []rule      `json:"discovered"`
		DurationMs int64       `json:"durationMs"`
		Tuples     int         `json:"tuples"`
		Version    int64       `json:"version"`
	}{cands, out, time.Since(start).Milliseconds(), rep.Tuples, rep.Version})
}
