package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// pollCtx counts its Err() polls and answers context.Canceled from poll
// at+1 on (never, for at < 0): it cancels a request at an exact poll.
type pollCtx struct {
	context.Context
	at    int64
	polls atomic.Int64
}

func newPollCtx(at int) *pollCtx { return &pollCtx{Context: context.Background(), at: int64(at)} }

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.at >= 0 && n > c.at {
		return context.Canceled
	}
	return nil
}

// sweepRoute is one route that forwards r.Context() and the facade call it
// makes with the same inputs.
type sweepRoute struct {
	method, target, body string
	facade               func(ctx context.Context, s *core.Semandaq) error
}

// drain runs a detection stream to its end.
func drain(ctx context.Context, s *core.Semandaq, opts ...core.Option) error {
	for _, err := range s.DetectStream(ctx, "customer", opts...) {
		if err != nil {
			return err
		}
	}
	return nil
}

// errOf drops a facade call's result.
func errOf[T any](_ T, err error) error { return err }

func exploreCall(ctx context.Context, s *core.Semandaq) error {
	return errOf(s.Explore(ctx, "customer"))
}

var sweepRoutes = []sweepRoute{
	{"POST", "/api/detect/customer", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.DetectDigest(ctx, "customer", core.WithEngine(core.SQLDetection)))
	}},
	{"POST", "/api/detect/customer?engine=columnar", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.DetectDigest(ctx, "customer", core.WithEngine(core.ColumnarDetection)))
	}},
	{"POST", "/api/detect/customer?engine=parallel&workers=4", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.DetectDigest(ctx, "customer", core.WithEngine(core.ParallelDetection), core.WithWorkers(4)))
	}},
	// A stream defaults to the blocking route's engine.
	{"GET", "/api/detect/customer?stream=1", "", func(ctx context.Context, s *core.Semandaq) error {
		return drain(ctx, s, core.WithEngine(core.SQLDetection))
	}},
	{"GET", "/api/detect/customer?stream=1&engine=sql", "", func(ctx context.Context, s *core.Semandaq) error {
		return drain(ctx, s, core.WithEngine(core.SQLDetection))
	}},
	{"GET", "/api/audit/customer", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.Audit(ctx, "customer"))
	}},
	{"GET", "/api/explore/customer/cfds", "", exploreCall},
	{"GET", "/api/explore/customer/patterns?cfd=phi2", "", exploreCall},
	{"GET", "/api/explore/customer/lhs?cfd=phi2", "", exploreCall},
	{"GET", "/api/explore/customer/map", "", exploreCall},
	{"GET", "/api/explore/customer/tuple/3", "", exploreCall},
	{"POST", "/api/repair/customer", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.Repair(ctx, "customer"))
	}},
	{"POST", "/api/monitor/customer", "", func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.Monitor(ctx, "customer", core.WithCleansed(false)))
	}},
	{"POST", "/api/discover/customer", `{"minSupport": 2}`, func(ctx context.Context, s *core.Semandaq) error {
		return errOf(s.Discover(ctx, "customer", core.WithMinSupport(2)))
	}},
}

// sweepFixture is a session over the customer table and its CFDs, with
// the table's snapshot after loading.
type sweepFixture struct {
	s    *core.Semandaq
	tab  *relstore.Table
	snap *relstore.Snapshot
}

func newSweepFixture(t *testing.T) *sweepFixture {
	t.Helper()
	s := core.New()
	tab, err := s.LoadCSV("customer", strings.NewReader(customersCSV))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterCFDText("customer", cfdText); err != nil {
		t.Fatal(err)
	}
	return &sweepFixture{s: s, tab: tab, snap: tab.Snapshot()}
}

// reset drops the session's per-table state (cached reports, discovery
// session, monitor) and returns a server with no pending repair.
func (fx *sweepFixture) reset() http.Handler {
	fx.s.RegisterTable(fx.tab)
	return New(fx.s).Handler()
}

// serveCtx delivers one request to the handler in-process under ctx.
func serveCtx(ctx context.Context, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx))
	return rec
}

var durations = regexp.MustCompile(`"durationMs":[0-9.e+-]+`)

// csvModel is the row model of customersCSV: its cells parsed one by one,
// under the ids the table assigned.
func csvModel(tab *relstore.Table) ([]relstore.TupleID, []relstore.Tuple) {
	var rows []relstore.Tuple
	for _, line := range strings.Split(strings.TrimSpace(customersCSV), "\n")[1:] {
		var row relstore.Tuple
		for _, cell := range strings.Split(line, ",") {
			row = append(row, types.Parse(cell))
		}
		rows = append(rows, row)
	}
	return slices.Clone(tab.Snapshot().IDs()), rows
}

// TestCancelSweep cancels every route that forwards r.Context() at each of
// its polls in turn: internal/core's sweep, one layer up. A route adds no
// poll of its own, so a full request polls exactly as often as the facade
// call it makes (density), and never less (chain): a severed context polls
// nothing. A cancelled request answers 499 — or, once a stream has
// started, ends on an error line with no done line — and leaves no pending
// repair, no monitor and the table on its snapshot; the next request
// answers as a cold one, up to durations.
func TestCancelSweep(t *testing.T) {
	fx := newSweepFixture(t)
	for _, rt := range sweepRoutes {
		t.Run(rt.method+" "+rt.target, func(t *testing.T) {
			fx.reset()
			fctx := newPollCtx(-1)
			if err := rt.facade(fctx, fx.s); err != nil {
				t.Fatal(err)
			}
			ctx := newPollCtx(-1)
			cold := serveCtx(ctx, fx.reset(), rt.method, rt.target, rt.body)
			if cold.Code != http.StatusOK {
				t.Fatalf("status %d: %s", cold.Code, cold.Body)
			}
			want := durations.ReplaceAllString(cold.Body.String(), "")
			polls := int(ctx.polls.Load())
			if facade := int(fctx.polls.Load()); polls != facade || polls == 0 {
				t.Fatalf("the route polled %d times, the facade call %d", polls, facade)
			}
			for k := range polls {
				h := fx.reset()
				rec := serveCtx(newPollCtx(k), h, rt.method, rt.target, rt.body)
				body := rec.Body.String()
				lines := strings.Split(strings.TrimSpace(body), "\n")
				streamCut := rec.Code == http.StatusOK && strings.HasPrefix(lines[len(lines)-1], `{"error":"context canceled"}`)
				if rec.Code != statusClientClosedRequest && !streamCut || strings.Contains(body, `"done"`) {
					t.Fatalf("cancelled at poll %d: status %d: %s", k, rec.Code, body)
				}
				if rec := serveCtx(context.Background(), h, "POST", "/api/repair/customer/apply", ""); rec.Code != http.StatusConflict {
					t.Fatalf("cancelled at poll %d: a repair is pending: %d %s", k, rec.Code, rec.Body)
				}
				if m, err := fx.s.ActiveMonitor("customer"); m != nil || err != nil {
					t.Fatalf("cancelled at poll %d: monitor %v, %v", k, m, err)
				}
				if fx.tab.Snapshot() != fx.snap {
					t.Fatalf("cancelled at poll %d: the table moved to version %d", k, fx.tab.Version())
				}
				again := serveCtx(context.Background(), h, rt.method, rt.target, rt.body)
				if got := durations.ReplaceAllString(again.Body.String(), ""); again.Code != cold.Code || got != want {
					t.Fatalf("the request after a cancellation at poll %d answered %d %s, a cold one %d %s", k, again.Code, got, cold.Code, want)
				}
			}
			ids, rows := csvModel(fx.tab)
			if err := relstore.DiffSnapshots(fx.tab.Snapshot(), relstore.BuildSnapshot(fx.tab.Schema(), fx.snap.Version(), ids, rows)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCancelledWritesLand covers the routes that take no context — CSV
// ingest, the row writes the overlay folds, and a reviewed repair's apply
// (computed on a fork of the table): they poll nothing, so a cancelled
// request still lands whole, and the table's snapshot equals its row model
// after each.
func TestCancelledWritesLand(t *testing.T) {
	s := core.New()
	h := New(s).Handler()
	cancelled := func(method, target, body string) {
		t.Helper()
		ctx := newPollCtx(0)
		if rec := serveCtx(ctx, h, method, target, body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		if n := ctx.polls.Load(); n != 0 {
			t.Errorf("%s %s polled %d times", method, target, n)
		}
	}
	cancelled("POST", "/api/tables/customer", customersCSV)
	if _, err := s.RegisterCFDText("customer", cfdText); err != nil {
		t.Fatal(err)
	}
	tab, _ := s.Table("customer")
	ids, rows := csvModel(tab)
	check := func(what string) {
		t.Helper()
		model := relstore.BuildSnapshot(tab.Schema(), tab.Version(), ids, rows)
		if err := relstore.DiffSnapshots(tab.Snapshot(), model); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	check("the load")

	const insert = `{"row": ["Zed", "UK", "Leeds", "LS1 4AP", "Briggate", 44, 113]}`
	cancelled("POST", "/api/tables/customer/rows", insert)
	var body struct{ Row []any }
	if err := json.Unmarshal([]byte(insert), &body); err != nil {
		t.Fatal(err)
	}
	model := make(relstore.Tuple, len(body.Row))
	for i, v := range body.Row {
		model[i] = valueForAttr(tab.Schema(), i, v)
	}
	ids, rows = append(ids, tab.Snapshot().IDs()[len(ids)]), append(rows, model)
	check("an insert")

	cancelled("PATCH", "/api/tables/customer/rows/1", `{"attr": "CITY", "value": "Glasgow"}`)
	i := slices.Index(ids, 1)
	rows[i] = slices.Clone(rows[i])
	rows[i][tab.Schema().MustPos("CITY")] = types.NewString("Glasgow")
	check("a cell write")

	cancelled("DELETE", "/api/tables/customer/rows/2", "")
	i = slices.Index(ids, 2)
	ids, rows = slices.Delete(ids, i, i+1), slices.Delete(rows, i, i+1)
	check("a delete")

	res, err := s.Repair(context.Background(), "customer")
	if err != nil || len(res.Modifications) == 0 {
		t.Fatalf("repair: %v, %v", res, err)
	}
	if rec := serveCtx(context.Background(), h, "POST", "/api/repair/customer", ""); rec.Code != http.StatusOK {
		t.Fatalf("repair: %d %s", rec.Code, rec.Body)
	}
	check("a repair")
	cancelled("POST", "/api/repair/customer/apply", "")
	for _, m := range res.Modifications {
		i := slices.Index(ids, m.TupleID)
		rows[i] = slices.Clone(rows[i])
		rows[i][tab.Schema().MustPos(m.Attr)] = m.New
	}
	check("a repair's apply")
}
