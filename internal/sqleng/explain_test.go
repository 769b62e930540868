package sqleng

import (
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

// planLines returns the plan lines of a SELECT.
func planLines(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	lines, err := Plan(e, sql)
	if err != nil {
		t.Fatalf("planning %s: %v", sql, err)
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
// cardinalities from the relstore statistics, the scans in FROM order, the
// filter on cust pushed into its scan and each key equality run on codes at
// the stage that resolves it.
func TestExplainThreeTableJoin(t *testing.T) {
	e := New(newJoinStore(t))
	lines := planLines(t, e,
		`SELECT o.OID, p.PNAME FROM orders o, cust c, prod p
		 WHERE o.CID = c.CID AND o.PID = p.PID AND c.CITY = 'York'`)
	text := strings.Join(lines, "\n")

	if drive := indexOfLine(lines, "drive orders AS o rows=8"); drive != 0 {
		t.Fatalf("expected driver scan first, got:\n%s", text)
	}
	// Exact statistics: distinct class counts straight from the columns.
	if !strings.Contains(lines[0], "OID:8") || !strings.Contains(lines[0], "CID:2") || !strings.Contains(lines[0], "PID:8") {
		t.Errorf("driver stats wrong: %q", lines[0])
	}
	custScan := indexOfLine(lines, "scan cust AS c rows=4")
	filter := indexOfLine(lines, "  filter (c.CITY = 'York')")
	custKey := indexOfLine(lines, "  stage-filter (o.CID = c.CID)")
	prodScan := indexOfLine(lines, "scan prod AS p rows=8")
	prodKey := indexOfLine(lines, "  stage-filter (o.PID = p.PID)")
	if custScan < 1 || filter != custScan+1 || custKey != custScan+2 || prodScan != custKey+1 || prodKey != prodScan+1 {
		t.Errorf("scan lines wrong:\n%s", text)
	}
	if indexOfLine(lines, "sink project 2 cols") < 0 || indexOfLine(lines, "materialise [o.OID p.PNAME] at the sink") < 0 {
		t.Errorf("sink lines wrong:\n%s", text)
	}
}

// TestExplainJoinKinds: there is one join kind, a nested loop over the
// joined scan's surviving rows. An equality between two scans runs as the
// later scan's stage filter, whatever the key's class count; a conjunct
// that reads the joined scan alone filters it before the join.
func TestExplainJoinKinds(t *testing.T) {
	e := New(newJoinStore(t))
	for _, c := range []struct{ sql, scan, filter string }{
		{"SELECT c1.CITY FROM cust c1, cust c2 WHERE c1.CID = c2.CID AND c1.CITY = c2.CITY",
			"scan cust AS c2 rows=4", "  stage-filter (c1.CID = c2.CID)"},
		{"SELECT o.OID FROM orders o, cust c WHERE c.CID = o.CID",
			"scan cust AS c rows=4", "  stage-filter (c.CID = o.CID)"},
		{"SELECT o.OID FROM orders o, cust c WHERE o.CID = c.CID OR c.CITY = 'York'",
			"scan cust AS c rows=4", "  stage-filter ((o.CID = c.CID) OR (c.CITY = 'York'))"},
		{"SELECT o.OID FROM orders o, cust c WHERE c.CITY = 'York' OR c.CID = 0",
			"scan cust AS c rows=4", "  filter ((c.CITY = 'York') OR (c.CID = 0))"},
	} {
		lines := planLines(t, e, c.sql)
		if scan := indexOfLine(lines, c.scan); scan < 0 || indexOfLine(lines[scan:], c.filter) != 1 {
			t.Errorf("%s: want %q then %q in:\n%s", c.sql, c.scan, c.filter, strings.Join(lines, "\n"))
		}
		if indexOfLine(lines, "join") >= 0 {
			t.Errorf("%s: a join line in\n%s", c.sql, strings.Join(lines, "\n"))
		}
	}
}

// TestExplainCodePipeline pins what a plan says about the cursor pipeline:
// the conjuncts each stage runs, the translation tables between two
// dictionaries, grouping and HAVING on codes and counts, and which columns
// the sink fetches — the projected ones, at the sink.
func TestExplainCodePipeline(t *testing.T) {
	e := New(fuzzStore(t))
	lines := planLines(t, e, `SELECT r.A AS A FROM r, s
		WHERE (s.A = 9 OR r.A = s.A) AND s.D = 's' GROUP BY r.A
		HAVING COUNT(DISTINCT r.B) > 1 OR (COUNT(DISTINCT r.B) = 1 AND COUNT(r.B) < COUNT(*))`)
	for _, want := range [][]string{
		{"  filter (s.D = 's')"},
		{"  stage-filter ((s.A = 9) OR (r.A = s.A))"},
		{"xlat r.A→s.A (4 codes)"},
		{"sink group on codes(1) aggs=3, having on counts, project 1 cols"},
		{"materialise [r.A] at the sink"},
	} {
		if indexOfLine(lines, want...) < 0 {
			t.Errorf("missing %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}

	lines = planLines(t, e, `SELECT r._tid, s.D, r.B FROM r, s WHERE r.A = s.A AND r.B = s.D AND r.C <> 0.5`)
	for _, want := range [][]string{
		{"  stage-filter (r.C <> 0.5)"},
		{"  stage-filter (r.A = s.A)"},
		{"  stage-filter (r.B = s.D)"},
		{"xlat r.A→s.A (4 codes)"},
		{"xlat r.B→s.D (5 codes)"},
		{"sink project 3 cols"},
		{"materialise [r._tid s.D r.B] at the sink"},
	} {
		if indexOfLine(lines, want...) < 0 {
			t.Errorf("missing %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

// TestExplainStampsVersions: a plan names the version of every base table
// it reads — the engine-level pin where there is one, the live version
// otherwise, one entry per table however often the statement names it.
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
		{`SELECT o.OID, p.PNAME FROM orders o, cust c, prod p
		  WHERE o.CID = c.CID AND o.PID = p.PID AND c.CITY = 'York'`,
			map[string]int64{"orders": pinned.Version(), "cust": cust.Version(), "prod": prod.Version()}},
		{`SELECT c1.CITY FROM cust c1, cust c2 WHERE c1.CID = c2.CID`,
			map[string]int64{"cust": cust.Version()}},
	} {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.buildSelectPlan(st)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if p.versions == nil || !maps.Equal(p.versions, c.want) {
			t.Errorf("%s: versions = %#v, want %#v", c.sql, p.versions, c.want)
		}
	}
}
