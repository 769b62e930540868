package sqleng

import (
	"context"
	"maps"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newJoinStore builds a three-way star schema with skewed cardinalities:
// orders (8 rows) joins cust on CID (2 distinct values -> expect 2 matches
// per probe) and prod on PID (8 distinct values -> expect 1 match).
func newJoinStore(t *testing.T) *relstore.Store {
	t.Helper()
	store := relstore.NewStore()
	orders, err := store.Create(schema.New("orders", "OID", "CID", "PID"))
	if err != nil {
		t.Fatal(err)
	}
	cust, err := store.Create(schema.New("cust", "CID", "CITY"))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := store.Create(schema.New("prod", "PID", "PNAME"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		orders.MustInsert(relstore.Tuple{
			types.NewInt(int64(100 + i)),
			types.NewInt(int64(i % 2)),
			types.NewInt(int64(i)),
		})
		prod.MustInsert(relstore.Tuple{
			types.NewInt(int64(i)),
			types.NewString("prod" + string(rune('a'+i))),
		})
	}
	cust.MustInsert(relstore.Tuple{types.NewInt(0), types.NewString("York")})
	cust.MustInsert(relstore.Tuple{types.NewInt(0), types.NewString("Hull")})
	cust.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("York")})
	cust.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("Bath")})
	return store
}

// planLines runs EXPLAIN and returns the plan rows as strings.
func planLines(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	res, err := e.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("EXPLAIN failed: %v", err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v", res.Columns)
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = row[0].String()
	}
	return lines
}

// indexOfLine returns the first line containing all substrings, or -1.
func indexOfLine(lines []string, subs ...string) int {
	for i, ln := range lines {
		ok := true
		for _, s := range subs {
			if !strings.Contains(ln, s) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// TestExplainThreeTableJoin pins the plan shape of a 3-table join: exact
// cardinalities from the relstore statistics, the pushed-down filter on
// cust, and the hoisting of the selective prod probe into the driver scan.
func TestExplainThreeTableJoin(t *testing.T) {
	e := New(newJoinStore(t))
	lines := planLines(t, e,
		`EXPLAIN SELECT o.OID, p.PNAME FROM orders o, cust c, prod p
		 WHERE o.CID = c.CID AND o.PID = p.PID AND c.CITY = 'York'`)
	text := strings.Join(lines, "\n")

	drive := indexOfLine(lines, "drive orders AS o rows=8")
	if drive != 0 {
		t.Fatalf("expected driver scan first, got:\n%s", text)
	}
	// Exact statistics: distinct class counts straight from the PLIs.
	if !strings.Contains(lines[0], "OID:8") || !strings.Contains(lines[0], "CID:2") || !strings.Contains(lines[0], "PID:8") {
		t.Errorf("driver stats wrong: %q", lines[0])
	}

	// The prod join keys only on the driver, is the most selective
	// (expect=1 vs cust's expect=2), and must be probed at the driver
	// stage, before any cust pairing happens.
	probe := indexOfLine(lines, "probe join#2", "pli", "expect=1")
	custScan := indexOfLine(lines, "scan cust AS c rows=4")
	if probe < 0 || custScan < 0 || probe > custScan {
		t.Errorf("prod probe not hoisted above cust scan:\n%s", text)
	}

	// WHERE c.CITY = 'York' is pushed into the cust scan, compiled to codes.
	filter := indexOfLine(lines, "filter code-pred", "c.CITY", "York")
	if filter < custScan {
		t.Errorf("cust filter not pushed down below its scan:\n%s", text)
	}

	// Both joins go through PLI classes with exact counts.
	if indexOfLine(lines, "join inner pli on o.CID = c.CID", "classes=2", "expect=2") < 0 {
		t.Errorf("cust join line wrong:\n%s", text)
	}
	if indexOfLine(lines, "join inner pli on o.PID = p.PID", "classes=8", "expect=1", "probe@0") < 0 {
		t.Errorf("prod join line wrong:\n%s", text)
	}

	if indexOfLine(lines, "sink", "project 2 cols") < 0 {
		t.Errorf("sink line wrong:\n%s", text)
	}
}

// TestExplainCodePipeline pins what EXPLAIN says about the cursor pipeline:
// which predicates run on codes, the translation tables they read, grouping
// on codes, and which columns are materialised where — late, at the sink,
// for a fully code-compiled statement (the detector's Qv shape), per row for
// the column a value-level predicate still reads.
func TestExplainCodePipeline(t *testing.T) {
	e := New(fuzzStore(t))
	lines := planLines(t, e, `EXPLAIN SELECT r.A AS A FROM r, s
		WHERE (s.A = 9 OR r.A = s.A) AND s.D = 's' GROUP BY r.A
		HAVING COUNT(DISTINCT r.B) > 1 OR (COUNT(DISTINCT r.B) = 1 AND COUNT(r.B) < COUNT(*))`)
	for _, want := range [][]string{
		{"filter code-pred (s.D = 's')"},
		{"stage-filter code-pred ((s.A = 9) OR (r.A = s.A))"},
		{"xlat r.A→s.A (5 codes)"},
		{"sink group on codes(1) aggs=3", "having"},
		{"materialise [r.A] at the sink"},
	} {
		if indexOfLine(lines, want...) < 0 {
			t.Errorf("missing %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if indexOfLine(lines, "per row") >= 0 {
		t.Errorf("a fully code-compiled plan fills no column per row:\n%s", strings.Join(lines, "\n"))
	}

	lines = planLines(t, e, `EXPLAIN SELECT r.A + 1, s.D FROM r, s
		WHERE r.A IS NOT DISTINCT FROM s.A AND COALESCE(r.B, 'q') = s.D AND r.C > 0.5 GROUP BY r.A + 1, s.D`)
	for _, want := range [][]string{
		{"materialise [r.C] per row"},
		{"stage-filter (r.C > 0.5)"},
		{"join inner hash on r.A IS NOT DISTINCT FROM s.A, COALESCE(r.B, 'q') = s.D"},
		{"xlat r.A→s.A null-safe (5 codes)"},
		{"xlat COALESCE(r.B, 'q')→s.D (6 codes)"},
		{"sink group(keys=2 aggs=0)"},
		{"materialise [r.A s.D] at the sink"},
	} {
		if indexOfLine(lines, want...) < 0 {
			t.Errorf("missing %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if indexOfLine(lines, "code-pred", "r.C") >= 0 {
		t.Errorf("an ordering compare cannot run on codes:\n%s", strings.Join(lines, "\n"))
	}
}

// TestExplainGreedyProbeOrder checks that when two hoisted probes land on
// the same stage, the one with fewer expected matches is probed first.
func TestExplainGreedyProbeOrder(t *testing.T) {
	store := newJoinStore(t)
	wide, err := store.Create(schema.New("wide", "CID", "W"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		wide.MustInsert(relstore.Tuple{types.NewInt(int64(i % 2)), types.NewInt(int64(i))})
	}
	e := New(store)
	// cust joins at its own stage; wide (expect=3) and prod (expect=1) both
	// key on the driver alone, so both hoist to stage 0; greedy ordering
	// must put the selective prod probe first.
	lines := planLines(t, e,
		`EXPLAIN SELECT o.OID FROM orders o, cust c, wide w, prod p
		 WHERE o.CID = c.CID AND o.CID = w.CID AND o.PID = p.PID`)
	text := strings.Join(lines, "\n")
	prodProbe := indexOfLine(lines, "probe join#3", "expect=1")
	wideProbe := indexOfLine(lines, "probe join#2", "expect=3")
	if prodProbe < 0 || wideProbe < 0 {
		t.Fatalf("missing hoisted probes:\n%s", text)
	}
	if prodProbe > wideProbe {
		t.Errorf("greedy order wrong: selective probe after coarse one:\n%s", text)
	}
}

// TestExplainNoFrom covers the constant-select guard.
func TestExplainNoFrom(t *testing.T) {
	e := New(relstore.NewStore())
	lines := planLines(t, e, "EXPLAIN SELECT 1 + 2")
	if len(lines) != 1 || !strings.Contains(lines[0], "constant select") {
		t.Errorf("lines = %v", lines)
	}
}

// TestExplainStampsVersions: an EXPLAIN names the version of every base
// table its plan would read — the engine-level pin where there is one, the
// live version otherwise, one entry per table however often the statement
// names it — and a statement without FROM reads no table, which the stamp
// records as an empty, non-nil map.
func TestExplainStampsVersions(t *testing.T) {
	store := newJoinStore(t)
	orders, _ := store.Table("orders")
	cust, _ := store.Table("cust")
	prod, _ := store.Table("prod")
	e := New(store)
	pinned := orders.Snapshot()
	e.Pin(pinned)
	orders.MustInsert(relstore.Tuple{types.NewInt(200), types.NewInt(0), types.NewInt(0)})
	cust.SetCell(0, 1, types.NewString("Leeds"))
	if pinned.Version() == orders.Version() {
		t.Fatal("the pinned orders snapshot is the live version; the pin case proves nothing")
	}
	for _, c := range []struct {
		sql  string
		want map[string]int64
	}{
		{`EXPLAIN SELECT o.OID, p.PNAME FROM orders o, cust c, prod p
		  WHERE o.CID = c.CID AND o.PID = p.PID AND c.CITY = 'York'`,
			map[string]int64{"orders": pinned.Version(), "cust": cust.Version(), "prod": prod.Version()}},
		{`EXPLAIN SELECT c1.CITY FROM cust c1, cust c2 WHERE c1.CID = c2.CID`,
			map[string]int64{"cust": cust.Version()}},
		{`EXPLAIN SELECT 1 + 2`, map[string]int64{}},
	} {
		res, err := e.QueryContext(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.Versions == nil || !maps.Equal(res.Versions, c.want) {
			t.Errorf("%s: versions = %#v, want %#v", c.sql, res.Versions, c.want)
		}
	}
}
