package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"semandaq/internal/audit"
	"semandaq/internal/cfd"
	"semandaq/internal/consistency"
	"semandaq/internal/core"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/explore"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// The traced pass has no spans inside the program to read, so it measures
// each layer from outside: every request is served three times, by three
// replicas fed identical writes — the HTTP handler, a bare core.Semandaq
// called through its facade, and a bare relstore.Table on which the benchmark
// calls the layers below the facade one by one. The lower rung's span is the
// child of the one above, so a layer's self time is what its rung costs over
// the rung below: server = handler - facade, core = facade - bare calls.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Round  int    `json:"round"`  // -1: set-up
	Bundle string `json:"bundle"` // setup, write, read or cleanse
	Extra  bool   `json:"extra"`  // beside the ladder: sizes a layer, is no one's child
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfTimes returns, per span, its duration less its children's, in ms. The
// rungs run one after another, not nested, so it is durations that subtract,
// not intervals.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i := range spans {
		self[i] = spans[i].ms()
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			self[p-1] -= spans[i].ms()
		}
	}
	return self
}

// bill collects per-round sums by metric name; round -1 is set-up.
type bill map[string]map[int]float64

func (b bill) add(name string, round int, v float64) {
	if b[name] == nil {
		b[name] = map[int]float64{}
	}
	b[name][round] += v
}

// value is the median of a name's per-round sums over the kept rounds, a
// round without it counting as zero. A name that only set-up produced has
// its set-up sum.
func (b bill) value(name string, rounds int) float64 {
	var vs []float64
	seen := false
	for r := warmup; r < rounds; r++ {
		v, ok := b[name][r]
		seen = seen || ok
		vs = append(vs, v)
	}
	if !seen {
		return b[name][-1]
	}
	return median(vs)
}

type tracer struct {
	t0     time.Time
	spans  []span
	round  int
	bundle string
	settle bool // collect garbage before each span
	counts bill
}

// span times fn and records it under parent. With settle set the span starts
// from a collected heap: the rungs run one after another over one heap, and
// without it a rung would pay for collecting the garbage of the rung before.
func (t *tracer) span(name string, parent int, fn func()) int {
	if t.settle {
		runtime.GC()
	}
	id := len(t.spans) + 1
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Round: t.round, Bundle: t.bundle, Start: int64(time.Since(t.t0))})
	fn()
	t.spans[id-1].End = int64(time.Since(t.t0))
	return id
}

func (t *tracer) extra(name string, fn func()) {
	id := t.span(name, 0, fn)
	t.spans[id-1].Extra = true
}

func (t *tracer) count(name string, v float64) { t.counts.add(name, t.round, v) }

// bill folds the spans' self times and the counts into per-round sums:
// <span name>_ms, and <layer>.self_ms over the ladder's spans.
func (t *tracer) bill() bill {
	b := bill{}
	for name, rounds := range t.counts {
		for r, v := range rounds {
			b.add(name, r, v)
		}
	}
	self := selfTimes(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		b.add(s.Name+"_ms", s.Round, self[i])
		if s.Name == "detect.sql" { // the one span reported whole and as self time
			b[s.Name+"_ms"][s.Round] += s.ms() - self[i]
			b.add("detect.sql_self_ms", s.Round, self[i])
		}
		if s.Extra {
			continue
		}
		if s.Layer == "server" || s.Layer == "core" {
			b.add(s.Layer+".self_ms", s.Round, self[i])
		}
		if s.Bundle == "read" {
			b.add("bench.read_self_sum_ms", s.Round, self[i])
		}
		if s.Parent == 0 && s.Round >= warmup {
			b.add("bench.traced_round_ms", s.Round, s.ms())
		}
	}
	return b
}

// serverSpan names the handler-rung span of each request kind.
var serverSpan = map[kind]string{
	kLoadCSV: "server.loadcsv", kCFDs: "server.cfds", kConsistency: "server.consistency",
	kEdit: "server.patch", kUpdates: "server.updates", kDetect: "server.detect",
	kAudit: "server.audit", kExploreCFDs: "server.explore", kExploreLHS: "server.explore",
	kExploreTuple: "server.explore", kRepair: "server.repair", kApply: "server.apply",
	kDiscover: "server.discover", kMonitor: "server.monitor",
}

// replicas are the three rungs and what the lower two carry between calls.
type replicas struct {
	sp  *spec
	tr  *tracer
	chk *checker
	ctx context.Context

	a *client        // handler rung
	b *core.Semandaq // facade rung

	// bare rung
	store *relstore.Store
	tab   *relstore.Table
	eng   *sqleng.Engine
	cfds  []*cfd.CFD
	mon   *monitor.Monitor
	sess  *discovery.Session

	ops          [len(opNames)]int64 // relstore build work since the last flush
	repB, repC   *detect.Report
	fixB, fixC   *repair.Result
	cfdText      string
	discoverOpts discovery.Options
}

func (r *replicas) must(err error, what string) {
	if err != nil {
		r.chk.fail("%s: %v", what, err)
	}
}

// bare times one call on the bare rung and books the relstore build work it
// did. Snapshots are counted only where the benchmark itself pins the served
// table: the SQL detector's tableau and group tables and the repairer's
// working clone are fresh tables, batch-built by design.
func (r *replicas) bare(name string, parent int, fn func()) int {
	before := relstore.ReadBuildOps()
	id := r.tr.span(name, parent, fn)
	d := relstore.ReadBuildOps().Sub(before)
	if name != "relstore.snapshot" {
		d.PatchedSnapshots, d.BatchSnapshots = 0, 0
	}
	for i, n := range [...]int64{d.InternedCells, d.PatchedCells, d.PatchedSnapshots, d.BatchSnapshots,
		d.SharedColumns, d.PatchedColumns, d.RebuiltColumns, d.PLIBuilds, d.PLIPatches} {
		r.ops[i] += n
	}
	return id
}

var opNames = [...]string{"interned_cells", "patched_cells", "patched_snapshots", "batch_snapshots",
	"shared_columns", "patched_columns", "rebuilt_columns", "pli_builds", "pli_patches"}

// flushOps books the build work since the last flush under the current round,
// zeros included: a round that built nothing must count as one that did.
func (r *replicas) flushOps() {
	for i, name := range opNames {
		r.tr.count("relstore."+name, float64(r.ops[i]))
		r.ops[i] = 0
	}
}

func cell(s string) types.Value { return types.Parse(s) }

func tuple(r row) relstore.Tuple {
	t := make(relstore.Tuple, arity)
	for j, c := range r {
		t[j] = cell(c)
	}
	return t
}

func updates(batch []edit) []monitor.Update {
	out := make([]monitor.Update, len(batch))
	for i, e := range batch {
		switch e.op {
		case opSet:
			out[i] = monitor.Update{Op: monitor.OpSet, ID: relstore.TupleID(e.id), Attr: attrNames[e.col], Value: cell(e.val)}
		case opInsert:
			out[i] = monitor.Update{Op: monitor.OpInsert, Row: tuple(e.row)}
		case opDelete:
			out[i] = monitor.Update{Op: monitor.OpDelete, ID: relstore.TupleID(e.id)}
		}
	}
	return out
}

// serve sends one request down the ladder.
func (r *replicas) serve(req *request, rec *recorder) {
	tr := r.tr
	tr.settle = req.kind != kEdit // row edits are too many and too small to collect between
	hr := httptest.NewRequest(req.method, req.target, bytes.NewReader(req.body))
	rec.reset()
	a := tr.span(serverSpan[req.kind], 0, func() { r.a.h.ServeHTTP(rec, hr) })
	tr.count("server.resp_bytes", float64(len(rec.buf)))

	var err error
	switch req.kind {
	case kLoadCSV:
		b := tr.span("core.loadcsv", a, func() { _, err = r.b.LoadCSV(table, bytes.NewReader(req.body)) })
		r.must(err, "facade LoadCSV")
		r.bare("relstore.readcsv", b, func() { r.tab, err = relstore.ReadCSV(table, bytes.NewReader(req.body)) })
		r.must(err, "bare ReadCSV")
		r.store.Put(r.tab)
		r.sess = discovery.NewSession(r.tab)

	case kCFDs:
		b := tr.span("core.cfds", a, func() { _, err = r.b.RegisterCFDText(table, r.cfdText) })
		r.must(err, "facade RegisterCFDText")
		r.bare("cfd.parse", b, func() { r.cfds, err = cfd.ParseSet(r.cfdText) })
		r.must(err, "bare ParseSet")
		r.bare("consistency.check", b, func() { _, err = consistency.Check(r.tab.Schema(), r.cfds, nil) })
		r.must(err, "bare consistency.Check")

	case kConsistency:
		b := tr.span("core.consistency", a, func() { _, err = r.b.CheckConsistency(table, nil) })
		r.must(err, "facade CheckConsistency")
		r.bare("consistency.check", b, func() { _, err = consistency.Check(r.tab.Schema(), r.cfds, nil) })
		r.must(err, "bare consistency.Check")

	case kEdit:
		r.edit(a, req.edit)

	case kUpdates:
		batch := updates(req.batch)
		b := tr.span("core.updates", a, func() { _, err = r.b.ApplyUpdates(table, batch) })
		r.must(err, "facade ApplyUpdates")
		batch = updates(req.batch) // inserted rows are the replica's own
		r.bare("monitor.apply", b, func() { _, err = r.mon.Apply(batch) })
		r.must(err, "bare monitor.Apply")
		tr.count("monitor.updates", float64(len(batch)))

	case kDetect:
		r.detect(a, req, rec)

	case kAudit:
		b := tr.span("core.audit", a, func() { _, err = r.b.Audit(r.ctx, table) })
		r.must(err, "facade Audit")
		snap := r.tab.Snapshot()
		r.bare("audit.audit", b, func() { _, err = audit.Audit(snap, r.cfds, r.repC) })
		r.must(err, "bare audit.Audit")

	case kExploreCFDs, kExploreLHS, kExploreTuple:
		b := tr.span("core.explore", a, func() { _, err = r.b.Explore(r.ctx, table) })
		r.must(err, "facade Explore")
		snap := r.tab.Snapshot()
		var ex *explore.Explorer
		r.bare("explore.new", b, func() { ex, err = explore.New(snap, r.cfds, r.repC) })
		if err == nil && req.kind == kExploreLHS {
			r.bare("explore.lhs", a, func() { _, err = ex.LHSGroups("phi2", 0) })
		}
		if err == nil && req.kind == kExploreTuple {
			r.bare("explore.tuple", a, func() { _, err = ex.ForTuple(relstore.TupleID(req.tuple)) })
		}
		r.must(err, "bare explore")

	case kRepair:
		b := tr.span("core.repair", a, func() { r.fixB, err = r.b.Repair(r.ctx, table) })
		r.must(err, "facade Repair")
		r.bare("repair.repair", b, func() { r.fixC, err = repair.NewRepairer().Repair(r.ctx, r.tab, r.cfds) })
		if r.must(err, "bare Repair"); err == nil {
			tr.count("repair.passes", float64(r.fixC.Passes))
			tr.count("repair.modifications", float64(len(r.fixC.Modifications)))
		}

	case kApply:
		if r.fixB == nil || r.fixC == nil {
			r.chk.fail("apply without a repair to apply")
			return
		}
		b := tr.span("core.apply", a, func() { _, _, err = r.b.ApplyRepair(table, r.fixB.Modifications) })
		r.must(err, "facade ApplyRepair")
		// As the facade does under a monitor: each cell through the tracker,
		// or the bare rung's violation index would fall behind its table.
		r.bare("repair.apply", b, func() {
			for _, m := range r.fixC.Modifications {
				if _, err = r.mon.Apply([]monitor.Update{{Op: monitor.OpSet, ID: m.TupleID, Attr: m.Attr, Value: m.New}}); err != nil {
					return
				}
			}
		})
		r.must(err, "bare repair apply")

	case kDiscover:
		b := tr.span("core.discover", a, func() {
			_, err = r.b.Discover(r.ctx, table, core.WithMaxLHS(r.discoverOpts.MaxLHS), core.WithWorkers(r.discoverOpts.Workers))
		})
		r.must(err, "facade Discover")
		r.bare("discovery.session", b, func() { _, err = r.sess.Discover(r.ctx, r.discoverOpts) })
		r.must(err, "bare Session.Discover")
		st := r.sess.LastStats()
		tr.count("discovery.partitions_intersected", float64(st.PartitionsIntersected))
		tr.count("discovery.partitions_collapsed", float64(st.PartitionsCollapsed))
		tr.count("discovery.va_checks_computed", float64(st.VAChecksComputed))
		tr.count("discovery.va_checks_reused", float64(st.VAChecksReused))
		if tr.round < 0 { // a cold mine sizes what the session saves
			snap := r.tab.Snapshot()
			tr.extra("discovery.mine", func() { _, _, err = discovery.MineWithStats(r.ctx, snap, r.discoverOpts) })
			r.must(err, "bare MineWithStats")
		}

	case kMonitor:
		b := tr.span("core.monitor", a, func() { _, err = r.b.Monitor(r.ctx, table) })
		r.must(err, "facade Monitor")
		r.bare("detect.tracker_seed", b, func() { r.mon, err = monitor.New(r.tab, r.cfds, false) })
		r.must(err, "bare monitor.New")
	}
}

func (r *replicas) edit(a int, e edit) {
	var err error
	id := relstore.TupleID(e.id)
	switch e.op {
	case opSet:
		b := r.tr.span("core.write", a, func() { _, err = r.b.SetCell(table, id, attrNames[e.col], cell(e.val)) })
		r.must(err, "facade SetCell")
		r.bare("relstore.write", b, func() { _, err = r.tab.SetCell(id, e.col, cell(e.val)) })
	case opInsert:
		b := r.tr.span("core.write", a, func() { _, _, err = r.b.Insert(table, tuple(e.row)) })
		r.must(err, "facade Insert")
		r.bare("relstore.write", b, func() { _, err = r.tab.Insert(tuple(e.row)) })
	case opDelete:
		b := r.tr.span("core.write", a, func() { _, err = r.b.Delete(table, id) })
		r.must(err, "facade Delete")
		r.bare("relstore.write", b, func() { r.tab.Delete(id) })
	}
	r.must(err, "bare edit")
}

// detect walks one detection down the rungs: the facade call, then on the
// bare table the snapshot pin, the columnar build or patch, and the engine;
// under a monitor, the tracker's report instead of an engine.
func (r *replicas) detect(a int, req *request, rec *recorder) {
	tr := r.tr
	engine := req.engine
	if engine == "" {
		engine = "sql"
	}
	kind, err := core.ParseDetectorKind(engine)
	r.must(err, "engine name")
	opts := []core.Option{core.WithEngine(kind)}
	if req.engine != "" {
		opts = append(opts, core.WithWorkers(2))
	}
	b := tr.span("core.detect", a, func() { r.repB, err = r.b.Detect(r.ctx, table, opts...) })
	r.must(err, "facade Detect")

	var snap *relstore.Snapshot
	r.bare("relstore.snapshot", b, func() { snap = r.tab.Snapshot() })
	switch {
	case r.mon != nil:
		r.bare("detect.tracker_report", b, func() { r.repC = r.mon.Report() })
	case engine == "sql":
		r.bare("relstore.columnar", b, func() { snap.Columnar() })
		r.sql(b, snap)
	default:
		if engine != "native" {
			r.bare("relstore.columnar", b, func() { snap.Columnar() })
		}
		var det detect.Detector
		det, err = detect.NewDetector(kind, detect.Config{Workers: 2, Store: r.store})
		r.must(err, "bare NewDetector")
		r.bare("detect."+engine, b, func() { r.repC, err = det.(detect.SnapshotDetector).DetectSnapshot(r.ctx, snap, r.cfds) })
		r.must(err, "bare DetectSnapshot")
	}

	// The rungs must agree, and the handler's answer with them.
	if r.repB != nil && r.repC != nil {
		r.must(detect.Equivalent(r.repB, r.repC), "facade and bare reports differ")
		if got, _ := intField(rec.buf, "dirty"); got != int64(len(r.repC.Vio)) {
			r.chk.fail("handler says %d dirty, bare engine %d", got, len(r.repC.Vio))
		}
	}
	if r.mon != nil || req.engine != r.sp.engine {
		return
	}
	// Beside the ladder, on the workload's own read: what a report-cache hit
	// costs, and what the factorised report would cost in its place.
	tr.count("detect.violations", float64(len(r.repC.Violations)))
	tr.count("detect.groups", float64(len(r.repC.Groups)))
	tr.count("detect.dirty_tuples", float64(len(r.repC.Vio)))
	tr.extra("core.detect_warm", func() { _, err = r.b.Detect(r.ctx, table, opts...) })
	r.must(err, "facade Detect, warm")
	var fr *detect.FactorReport
	tr.extra("detect.factorised", func() { fr, err = detect.DetectFactorised(r.ctx, snap, r.cfds) })
	if r.must(err, "DetectFactorised"); err == nil {
		tr.extra("detect.explode", func() { fr.Explode() })
	}
}

// sql runs the SQL detector on the bare rung, then replays the statements it
// generated one by one on the same pinned snapshot: the engine's own share of
// the detector's time, and its operator counts.
func (r *replicas) sql(parent int, snap *relstore.Snapshot) {
	var stmts []string
	det := &detect.SQLDetector{Engine: r.eng, KeepArtifacts: true, Trace: func(s string) { stmts = append(stmts, s) }}
	var err error
	d := r.bare("detect.sql", parent, func() { r.repC, err = det.DetectSnapshot(r.ctx, snap, r.cfds) })
	r.must(err, "bare SQL DetectSnapshot")
	r.eng.Pin(snap)
	defer r.eng.Unpin(table)
	before := r.eng.OpStats()
	for _, s := range stmts {
		var res *sqleng.Result
		r.bare("sqleng.query", d, func() { res, err = r.eng.QueryContext(r.ctx, s) })
		if r.must(err, "replayed statement"); err == nil {
			r.tr.count("sqleng.rows_out", float64(len(res.Rows)))
		}
	}
	after := r.eng.OpStats()
	r.tr.count("sqleng.statements", float64(len(stmts)))
	r.tr.count("sqleng.pli_probes", float64(after.PLIProbes-before.PLIProbes))
	r.tr.count("sqleng.hash_probes", float64(after.HashProbes-before.HashProbes))
	r.tr.count("sqleng.hash_build_rows", float64(after.HashBuildRows-before.HashBuildRows))
}

// tracedPass is what the traced pass hands to the per-layer report.
type tracedPass struct {
	bill   bill
	rounds int
	level  float64 // the kernel's quiet level over the pass, ms
	check  checker
}

// runTraced drives one pass down the ladder and writes its spans to
// out/trace-<workload>.json.
func runTraced(sp *spec, tuples int, seed int64, window time.Duration, cal *calibrator) (*tracedPass, error) {
	sc := generate(sp, tuples, seed, maxRounds(window))
	tp := &tracedPass{}
	store := relstore.NewStore()
	r := &replicas{
		sp: sp, chk: &tp.check, ctx: context.Background(),
		tr: &tracer{t0: time.Now(), round: -1, bundle: "setup", counts: bill{}},
		a:  newClient(), b: core.New(),
		store: store, eng: sqleng.New(store),
		cfdText:      sc.cfds,
		discoverOpts: discovery.Options{MaxLHS: 2, Workers: 2},
	}
	recs := make([]recorder, len(sc.setup))
	for i := range sc.setup {
		r.serve(&sc.setup[i], &recs[i])
		tp.check.check(&sc.setup[i], &recs[i])
	}
	tp.check.crossCheck(sc.setup, recs)
	r.flushOps()

	var kernel []float64
	var rec recorder // spans time the calls alone, so a round's checks can follow each call at once
	deadline := time.Now().Add(window)
	done := 0
	for ; done < len(sc.rounds); done++ {
		if done > warmup && time.Now().After(deadline) {
			break
		}
		r.tr.round = done
		rd := &sc.rounds[done]
		for _, part := range []struct {
			name string
			reqs []request
		}{{"write", rd.write}, {"read", rd.read}, {"cleanse", rd.cleanse}} {
			r.tr.bundle = part.name
			for i := range part.reqs {
				r.serve(&part.reqs[i], &rec)
				tp.check.check(&part.reqs[i], &rec)
			}
		}
		r.flushOps()
		kernel = append(kernel, cal.run())
	}
	tp.rounds = done
	tp.level = quantile(kernel, quietLevel)
	tp.bill = r.tr.bill()
	return tp, writeTrace(sp.name, r.tr.spans)
}

func writeTrace(workload string, spans []span) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join("out", "trace-"+workload+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// perLayerUnits lists every per-layer metric with its unit, as BENCHMARK.json
// does.
var perLayerUnits = [][2]string{
	{"server.detect_ms", "ms"}, {"server.audit_ms", "ms"}, {"server.explore_ms", "ms"},
	{"server.repair_ms", "ms"}, {"server.apply_ms", "ms"}, {"server.discover_ms", "ms"},
	{"server.updates_ms", "ms"}, {"server.patch_ms", "ms"}, {"server.loadcsv_ms", "ms"},
	{"server.self_ms", "ms"}, {"server.resp_bytes", "B"},
	{"core.detect_ms", "ms"}, {"core.detect_warm_ms", "ms"}, {"core.self_ms", "ms"},
	{"relstore.readcsv_ms", "ms"}, {"relstore.snapshot_ms", "ms"}, {"relstore.columnar_ms", "ms"},
	{"relstore.interned_cells", "count"}, {"relstore.patched_cells", "count"},
	{"relstore.patched_snapshots", "count"}, {"relstore.batch_snapshots", "count"},
	{"relstore.shared_columns", "count"}, {"relstore.patched_columns", "count"},
	{"relstore.rebuilt_columns", "count"}, {"relstore.pli_builds", "count"},
	{"relstore.pli_patches", "count"}, {"relstore.patch_share", "share"},
	{"detect.columnar_ms", "ms"}, {"detect.native_ms", "ms"}, {"detect.sql_ms", "ms"},
	{"detect.sql_self_ms", "ms"}, {"detect.factorised_ms", "ms"}, {"detect.explode_ms", "ms"},
	{"detect.tracker_seed_ms", "ms"}, {"detect.tracker_report_ms", "ms"},
	{"detect.violations", "count"}, {"detect.groups", "count"}, {"detect.dirty_tuples", "count"},
	{"sqleng.query_ms", "ms"}, {"sqleng.statements", "count"}, {"sqleng.rows_out", "count"},
	{"sqleng.pli_probes", "count"}, {"sqleng.hash_probes", "count"}, {"sqleng.hash_build_rows", "count"},
	{"cfd.parse_ms", "ms"}, {"consistency.check_ms", "ms"},
	{"monitor.apply_ms", "ms"}, {"monitor.updates_per_s", "1/s"},
	{"repair.repair_ms", "ms"}, {"repair.apply_ms", "ms"}, {"repair.passes", "count"},
	{"repair.modifications", "count"},
	{"discovery.mine_ms", "ms"}, {"discovery.session_ms", "ms"},
	{"discovery.partitions_intersected", "count"}, {"discovery.partitions_collapsed", "count"},
	{"discovery.va_checks_computed", "count"}, {"discovery.reuse_share", "share"},
	{"audit.audit_ms", "ms"}, {"explore.new_ms", "ms"}, {"explore.lhs_ms", "ms"}, {"explore.tuple_ms", "ms"},
	{"runtime.gc_cycles_per_round", "count"}, {"runtime.gc_pause_ms_per_round", "ms"}, {"runtime.gc_cpu_share", "share"},
	{"bench.cal_ms", "ms"}, {"bench.read_p50_raw_ms", "ms"}, {"bench.read_p90_raw_ms", "ms"}, {"bench.write_p50_raw_ms", "ms"},
	{"bench.setup_raw_s", "s"}, {"bench.samples", "count"}, {"bench.read_self_sum_ms", "ms"},
	{"bench.trace_overhead_share", "share"}, {"bench.drift_cells", "count"},
}

func share(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

// perLayer fills the per-layer metrics: spans and counts from the traced pass,
// the runtime's and the harness's own numbers from the untraced pass beside it.
func perLayer(out map[string]metric, p *pass, tp *tracedPass) {
	b, n := tp.bill, tp.rounds
	rounds := float64(len(p.rounds))
	cpu := sum(column(p.rounds, func(s *sample) float64 { return s.cpu }))
	roundMs := mean(column(p.rounds, (*sample).clocks))
	vals := map[string]float64{
		"relstore.patch_share": share(b.value("relstore.patched_snapshots", n), b.value("relstore.batch_snapshots", n)),
		"discovery.reuse_share": share(b.value("discovery.va_checks_reused", n),
			b.value("discovery.va_checks_computed", n)),
		"runtime.gc_cycles_per_round":   float64(p.gcCycles) / rounds,
		"runtime.gc_pause_ms_per_round": p.gcPauseMs / rounds,
		"runtime.gc_cpu_share":          p.gcCPUMs / cpu,
		"bench.cal_ms":                  p.level,
		"bench.read_p50_raw_ms":         median(column(p.rounds, func(s *sample) float64 { return s.read })),
		"bench.read_p90_raw_ms":         quantile(column(p.rounds, func(s *sample) float64 { return s.read }), 0.9),
		"bench.write_p50_raw_ms":        median(column(p.rounds, func(s *sample) float64 { return s.write })),
		"bench.setup_raw_s":             p.setupRaw,
		"bench.samples":                 rounds,
		"bench.drift_cells":             float64(p.drift),
	}
	if apply := b.value("monitor.apply_ms", n); apply > 0 {
		vals["monitor.updates_per_s"] = b.value("monitor.updates", n) / apply * 1e3
	}
	if traced := b["bench.traced_round_ms"]; len(traced) > 0 {
		total := 0.0
		for _, v := range traced {
			total += v
		}
		// Both sides scaled by their own pass's kernel level: the two passes
		// run seconds apart, on a machine whose speed drifts.
		vals["bench.trace_overhead_share"] = (total / float64(len(traced)) * scale(tp.level)) / (roundMs * scale(p.level))
	}
	for _, nu := range perLayerUnits {
		v, ok := vals[nu[0]]
		if !ok {
			v = b.value(nu[0], n)
		}
		out[nu[0]] = metric{v, nu[1]}
	}
}
