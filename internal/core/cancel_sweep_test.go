package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// pollCtx counts its Err() polls and answers context.Canceled from poll
// at+1 on (never, for at < 0): it cancels a run at an exact poll instead of
// at a wall-clock instant. sites tallies the polls per polling function,
// for failure messages.
type pollCtx struct {
	context.Context
	at    int64
	polls atomic.Int64
	mu    sync.Mutex
	sites map[string]int
}

func newPollCtx(at int) *pollCtx {
	return &pollCtx{Context: context.Background(), at: int64(at), sites: map[string]int{}}
}

func (c *pollCtx) Err() error {
	n := c.polls.Add(1)
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	f, _ := runtime.CallersFrames(pc[:]).Next()
	c.mu.Lock()
	c.sites[strings.TrimPrefix(f.Function, "semandaq/internal/")]++
	c.mu.Unlock()
	if c.at >= 0 && n > c.at {
		return context.Canceled
	}
	return nil
}

// String lists the polls per site, for a failed density check.
func (c *pollCtx) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for site, n := range c.sites {
		out = append(out, fmt.Sprintf("%s×%d", site, n))
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// The sweep's fixture: table r for detection and repair, table d for
// discovery.
//
// r has sweepRows rows (2.9 strides of 4096). K1, K2 put every row in a
// class of four (key = row/4), so every row of [K1, K2]'s partition is in a
// multi-row class; V breaks ten of those classes (one "w" among three "v"),
// and D breaks [C=x] -> [D=y] on ten rows. Its CFDs are
//
//	phiV: [K1, K2] -> [V]  (variable pattern only)
//	phiC: [C=x] -> [D=y]   (constant pattern only)
//
// so a report holds ten single-tuple violations and ten groups of four: 50
// violation records, ten tuples to fix by constant and ten groups to merge.
//
// d has one stride of rows over four columns: A, B and C are the row
// number's three low bits and D = A xor B, so every column has two classes
// of 2048 rows, every pair four of 1024, and the only dependencies are the
// xor triangle AB -> D, AD -> B, BD -> A.
const sweepRows = 12000

const sweepCFDs = "r: [K1=_, K2=_] -> [V=_]\nr: [C=x] -> [D=y]\n"

// sweepFixture is one session over r and d, with each table's row model.
type sweepFixture struct {
	s      *Semandaq
	r, d   *relstore.Table
	cfds   []*cfd.CFD
	models map[*relstore.Table]*relstore.Snapshot
	pinned map[*relstore.Table]*relstore.Snapshot // each table's snapshot after its build
	sess   *discovery.Session                     // the engine rows' discovery session
	store  *relstore.Store                        // r and d, for the SQL engine rows
}

func newSweepFixture(t *testing.T) *sweepFixture {
	t.Helper()
	fx := &sweepFixture{s: New(), store: relstore.NewStore(), models: map[*relstore.Table]*relstore.Snapshot{}, pinned: map[*relstore.Table]*relstore.Snapshot{}}
	str := types.NewString
	fx.r = fx.build("r", []string{"K1", "K2", "V", "C", "D"}, sweepRows, func(i int) relstore.Tuple {
		key := i / 4
		v, c, d := "v", "y", "y"
		if i%4 == 3 && key%300 == 0 {
			v = "w"
		}
		if i%3 == 0 {
			c = "x"
		}
		if i%1200 == 0 {
			d = "z"
		}
		return relstore.Tuple{types.NewInt(int64(key / 50)), types.NewInt(int64(key % 50)), str(v), str(c), str(d)}
	})
	fx.d = fx.build("d", []string{"A", "B", "C", "D"}, 4096, func(i int) relstore.Tuple {
		a, b, c := i&1, i>>1&1, i>>2&1
		return relstore.Tuple{types.NewInt(int64(a)), types.NewInt(int64(b)), types.NewInt(int64(c)), types.NewInt(int64(a ^ b))}
	})
	var err error
	if fx.cfds, err = fx.s.RegisterCFDText("r", sweepCFDs); err != nil {
		t.Fatal(err)
	}
	return fx
}

// build registers a table of n generated rows and keeps its row model.
func (fx *sweepFixture) build(name string, attrs []string, n int, row func(i int) relstore.Tuple) *relstore.Table {
	tab := relstore.NewTable(schema.New(name, attrs...))
	ids := make([]relstore.TupleID, n)
	rows := make([]relstore.Tuple, n)
	for i := range rows {
		rows[i] = row(i)
		ids[i] = tab.MustInsert(rows[i])
	}
	fx.s.RegisterTable(tab)
	fx.store.Put(tab)
	fx.models[tab] = relstore.BuildSnapshot(tab.Schema(), tab.Version(), ids, rows)
	fx.pinned[tab] = tab.Snapshot()
	return tab
}

// reset drops every per-table state a run may leave — cached reports,
// discovery sessions, monitors — by re-registering the tables, which keeps
// their constraints.
func (fx *sweepFixture) reset() {
	fx.s.RegisterTable(fx.r)
	fx.s.RegisterTable(fx.d)
	fx.sess = discovery.NewSession(fx.d)
}

// residue reports what a cancelled run left behind: a cached report other
// than cold (the completed detection a caching row may leave), a discovery
// report, a monitor, or a table moved off its pinned snapshot — every write
// publishes a new one. unchanged compares the tables with their row models.
func (fx *sweepFixture) residue(cold *detect.FactorReport) error {
	fx.s.mu.Lock()
	defer fx.s.mu.Unlock()
	for key, st := range fx.s.tables {
		for kind, e := range st.entries {
			if cold == nil || !reflect.DeepEqual(e.fr, cold) {
				return fmt.Errorf("the report cache holds a %v entry for %s", kind, key)
			}
		}
		if st.discovery != nil && st.discovery.LastStats().FullRuns != 0 {
			return fmt.Errorf("the discovery session of %s holds a report", key)
		}
		if st.monitor != nil || st.starting {
			return fmt.Errorf("a monitor of %s is registered or starting", key)
		}
	}
	if fx.sess.LastStats().FullRuns != 0 {
		return errors.New("the discovery session holds a report")
	}
	for tab, snap := range fx.pinned {
		if tab.Snapshot() != snap {
			return fmt.Errorf("table %s moved to version %d", tab.Schema().Name, tab.Version())
		}
	}
	return nil
}

// unchanged diffs every table's snapshot against its row model.
func (fx *sweepFixture) unchanged() error {
	for tab, model := range fx.models {
		if err := relstore.DiffSnapshots(tab.Snapshot(), model); err != nil {
			return fmt.Errorf("table %s: %w", tab.Schema().Name, err)
		}
	}
	return nil
}

// The polls of full runs over the fixture, with S = 4096, every engine's
// stride. A stride poll fires at row 0, S, 2S, … of a scan (⌈n/S⌉ polls) or
// each time S rows of a walk have passed (⌊n/S⌋).
const (
	// detectFactorised: the entry poll; par.Each's poll per task, two tasks
	// per CFD; phiC's constant scan, ⌈12000/S⌉ = 3; phiV's class walk, an
	// entry poll and ⌊12000/S⌋ = 2 (every row is in a multi-row class). The
	// [K1, K2] classes come from the run's memo, which does not poll. phiV
	// has no constant pattern and phiC no variable one, so neither polls in
	// the other's pass.
	detectPolls = 1 + 2*2 + 3 + (1 + 2)
	// A stream's polls past its detection: one per record it yields,
	// 10 single-tuple and 10 groups of 4.
	streamPolls = 10 + 4*10
	// SQL detection: a poll per CFD. The class walk's steps (sqleng): Qv
	// takes the 3 000 [K1, K2] classes from the memo, deciding each on the
	// one tableau row, counts each class, and replays the 40 rows of the
	// ten classes V breaks (mixed) with one tail each,
	// ⌊(3000 + 3000 + 3000 + 2·40)/S⌋ = 2, then polls once finishing its
	// 3 000 groups; Qc decides the four [C, D] classes on one tableau row
	// each and replays the ten rows of the one class that meets it,
	// ⌊(4 + 4 + 1 + 2·10)/S⌋ = 0. Qv's keys resolve by the memo's lookup
	// into the classes the walk took, which does not poll.
	sqlPolls = 2 + (2 + 1) + 0
	// The grouped query: no WHERE, so D is empty, and the sink's key K1 is
	// off it: the class walk is off (its one class would replay every row),
	// the rows run the pipeline one by one, ⌊12000/S⌋ = 2, and one poll
	// finishes its 60 groups, all of which HAVING keeps.
	groupedPolls = 2 + 1
	// Repair: pass 1 detects, fixes ten tuples by constant and merges ten
	// groups, a poll each; pass 2 detects the repaired copy, which is clean.
	repairPolls = detectPolls + 10 + 10 + detectPolls
	// Mining d under MinSupport 2048 and MaxLHS 3. mine polls before and
	// after the cold build, which polls twice per column (before its probe
	// vector and before its frequent classes). Then the variable lattice,
	// one par.Each poll per (node, candidate) task:
	//  - level 1, 4 nodes × 3 candidates: nothing holds, and a check meets
	//    an impure class before S rows, so Refines never polls; each task
	//    retries under its column's two frequent classes, and condCheck
	//    polls once, at row 0, per class of 2048 rows;
	//  - level 2, 6 nodes × 2 candidates: the xor triangle holds, Refines
	//    walking four pure classes of 1024 — one poll; the other 9 retry
	//    under 2 columns × 2 classes;
	//  - level 3: only ABD keeps a candidate (C), and retries under
	//    3 columns × 2 classes.
	// The constant lattice has 8 frequent items, one task each; constHits
	// polls once per other column, at row 0, and finds nothing constant; no
	// two items meet in 2048 rows, so there is no level 2.
	minePolls = 2 + 4*2 + (12 + 12*2) + (12 + 3 + 9*4) + (1 + 6) + (8 + 8*3)
	// MinConfidence 0.9 and MaxLHS 1: level 1's twelve tasks, each failing
	// its purity check at once and then polling once in Keep's walk over
	// two classes of 2048, then retrying each class on the approximate
	// path (a poll at row 0); and the constant lattice's level 1.
	approxPolls = 2 + 4*2 + (12 + 12 + 12*2) + (8 + 8*3)
)

// sweepRow is one ctx-taking entry point: run calls it and returns a
// comparable view of its result (nil with any error). polls is the number
// of polls a full run makes; callee names the row whose work this one
// wraps. caches marks the rows that may cache a completed detection before
// a later poll.
type sweepRow struct {
	name   string
	polls  int
	callee string
	caches bool
	run    func(ctx context.Context) (any, error)
}

// collect drains a violation stream; an error returns no violations.
func collect(seq iter.Seq2[detect.Violation, error]) (any, error) {
	var out []detect.Violation
	for v, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// repairView is the comparable part of a repair result: everything but
// the repaired working copy.
func repairView(res *repair.Result, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return []any{res.Modifications, res.Cost, res.Passes, res.Converged, res.Remaining}, nil
}

// result returns v as an any, or nil with a non-nil error.
func result[T any](v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (fx *sweepFixture) rows() []sweepRow {
	s, r, d, cfds := fx.s, fx.r, fx.d, fx.cfds
	const grouped = "SELECT K1 FROM r GROUP BY K1 HAVING COUNT(*) > 0"
	mineOpts := discovery.Options{MinSupport: 2048, MaxLHS: 3, Workers: 2}
	approx := discovery.Options{MinSupport: 2048, MaxLHS: 1, MinConfidence: 0.9, Workers: 2}
	const factorised = "detect.DetectFactorised/workers=1"
	return []sweepRow{
		{name: factorised, polls: detectPolls, run: func(ctx context.Context) (any, error) {
			return result(detect.DetectFactorised(ctx, r.Snapshot(), cfds))
		}},
		{name: "detect.DetectFactorised/workers=4", polls: detectPolls, run: func(ctx context.Context) (any, error) {
			return result(detect.ColumnarDetector{Workers: 4}.DetectFactorised(ctx, r.Snapshot(), cfds))
		}},
		// DetectSnapshot polls once more before its uninterruptible Explode.
		{name: "ColumnarDetector.DetectSnapshot", polls: detectPolls + 1, callee: factorised, run: func(ctx context.Context) (any, error) {
			return result(detect.ColumnarDetector{Workers: 1}.DetectSnapshot(ctx, r.Snapshot(), cfds))
		}},
		{name: "SQLDetector.DetectFactorised", polls: sqlPolls, run: func(ctx context.Context) (any, error) {
			return result(detect.NewSQLDetector(fx.store).DetectFactorised(ctx, r.Snapshot(), cfds))
		}},
		{name: "SQLDetector.DetectSnapshot", polls: sqlPolls + 1, callee: "SQLDetector.DetectFactorised", run: func(ctx context.Context) (any, error) {
			return result(detect.NewSQLDetector(fx.store).DetectSnapshot(ctx, r.Snapshot(), cfds))
		}},
		{name: "sqleng.QueryContext", polls: groupedPolls, run: func(ctx context.Context) (any, error) {
			return result(sqleng.New(fx.store).QueryContext(ctx, grouped))
		}},
		{name: "sqleng.Stream+Each", polls: groupedPolls, run: func(ctx context.Context) (any, error) {
			ss, err := sqleng.New(fx.store).Stream(ctx, grouped)
			if err != nil {
				return nil, err
			}
			var out [][]types.Value
			err = ss.Each(ctx, func(row []types.Value) bool {
				out = append(out, append([]types.Value(nil), row...))
				return true
			})
			return result(out, err)
		}},
		{name: "discovery.Mine", polls: minePolls, run: func(ctx context.Context) (any, error) {
			return result(discovery.Mine(ctx, d.Snapshot(), mineOpts))
		}},
		{name: "discovery.Mine/approximate", polls: approxPolls, run: func(ctx context.Context) (any, error) {
			return result(discovery.Mine(ctx, d.Snapshot(), approx))
		}},
		{name: "Session.Discover", polls: minePolls, callee: "discovery.Mine", run: func(ctx context.Context) (any, error) {
			return result(fx.sess.Discover(ctx, mineOpts))
		}},
		{name: "Repairer.RepairFrom", polls: repairPolls, run: func(ctx context.Context) (any, error) {
			return repairView(repair.NewRepairer().RepairFrom(ctx, r, cfds, nil))
		}},
		// The facade adds no poll to detection, under either engine and any
		// worker count.
		{name: "Semandaq.Detect", polls: detectPolls, callee: factorised, run: func(ctx context.Context) (any, error) {
			return result(s.Detect(ctx, "r"))
		}},
		{name: "Semandaq.DetectDigest/parallel,workers=1", polls: detectPolls, callee: factorised, run: func(ctx context.Context) (any, error) {
			return result(s.DetectDigest(ctx, "r", WithEngine(ParallelDetection), WithWorkers(1)))
		}},
		{name: "Semandaq.DetectDigest/parallel,workers=4", polls: detectPolls, callee: "detect.DetectFactorised/workers=4", run: func(ctx context.Context) (any, error) {
			return result(s.DetectDigest(ctx, "r", WithEngine(ParallelDetection), WithWorkers(4)))
		}},
		{name: "Semandaq.DetectDigest/sql", polls: sqlPolls, callee: "SQLDetector.DetectFactorised", run: func(ctx context.Context) (any, error) {
			return result(s.DetectDigest(ctx, "r", WithEngine(SQLDetection)))
		}},
		// A stream reads the report its detection cached, a poll per record.
		{name: "Semandaq.DetectStream/columnar", polls: detectPolls + streamPolls, callee: factorised, caches: true, run: func(ctx context.Context) (any, error) {
			return collect(s.DetectStream(ctx, "r"))
		}},
		{name: "Semandaq.DetectStream/sql", polls: sqlPolls + streamPolls, callee: "SQLDetector.DetectFactorised", caches: true, run: func(ctx context.Context) (any, error) {
			return collect(s.DetectStream(ctx, "r", WithEngine(SQLDetection)))
		}},
		{name: "Semandaq.Audit", polls: detectPolls, callee: factorised, run: func(ctx context.Context) (any, error) {
			return result(s.Audit(ctx, "r"))
		}},
		{name: "Semandaq.Explore", polls: detectPolls, callee: factorised, run: func(ctx context.Context) (any, error) {
			ex, err := s.Explore(ctx, "r")
			if err != nil {
				return nil, err
			}
			return ex.CFDs(), nil
		}},
		// Repair detects through the cache, and the repairer's first pass
		// reads that report instead of detecting again.
		{name: "Semandaq.Repair", polls: repairPolls, callee: "Repairer.RepairFrom", caches: true, run: func(ctx context.Context) (any, error) {
			return repairView(s.Repair(ctx, "r"))
		}},
		{name: "Semandaq.Discover", polls: 1 + minePolls, callee: "Session.Discover", run: func(ctx context.Context) (any, error) {
			return result(s.Discover(ctx, "d", WithMinSupport(2048), WithMaxLHS(3), WithWorkers(2)))
		}},
		// Monitor polls once before it starts; the tracker's seed takes no
		// context.
		{name: "Semandaq.Monitor", polls: 1, run: func(ctx context.Context) (any, error) {
			m, err := s.Monitor(ctx, "r")
			if err != nil {
				return nil, err
			}
			fr, _ := m.FactorReport(r.Snapshot())
			return fr.Digest(), nil
		}},
	}
}

// TestCancelSweep cancels every ctx-taking entry point of the served layers
// at each of its polls in turn, and checks three properties:
//
//   - (a) residue: a cancelled run returns context.Canceled and no result.
//     It leaves no cached report, no discovery report, no monitor, and
//     each table on its snapshot, equal to its row model. A row marked
//     caches may leave
//     the detection it completed before the cancelled poll, equal to a
//     cold one. The next uncancelled run equals a cold run.
//   - (b) density: a full run polls exactly as the constants above derive,
//     so deleting any one poll changes the count.
//   - (c) chain: a caller polls at least as often as the callee it wraps,
//     called directly with the same inputs; a context severed on the way
//     (context.WithoutCancel) drops the callee's polls.
func TestCancelSweep(t *testing.T) {
	fx := newSweepFixture(t)
	rows := fx.rows()
	full := map[string]int{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fx.reset()
			cold, err := row.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var coldReport *detect.FactorReport
			if row.caches {
				for _, e := range fx.s.tables["r"].entries {
					coldReport = e.fr
				}
			}
			fx.reset()
			ctx := newPollCtx(-1)
			if _, err := row.run(ctx); err != nil {
				t.Fatal(err)
			}
			polls := int(ctx.polls.Load())
			full[row.name] = polls
			if polls != row.polls {
				t.Errorf("a full run polled %d times, want %d: %v", polls, row.polls, ctx)
			}
			for k := range polls {
				fx.reset()
				got, err := row.run(newPollCtx(k))
				if !errors.Is(err, context.Canceled) || got != nil {
					t.Fatalf("cancelled at poll %d: got (%v, %v), want a bare cancellation", k, got, err)
				}
				if err := fx.residue(coldReport); err != nil {
					t.Fatalf("cancelled at poll %d: %v", k, err)
				}
				again, err := row.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, cold) {
					t.Fatalf("the run after a cancellation at poll %d differs from a cold run", k)
				}
			}
			if err := fx.unchanged(); err != nil {
				t.Error(err)
			}
		})
	}
	for _, row := range rows {
		got, ran := full[row.name]
		if want, ok := full[row.callee]; ran && ok && got < want {
			t.Errorf("%s polls %d times, fewer than the %d of the %s it wraps", row.name, got, want, row.callee)
		}
	}
}
