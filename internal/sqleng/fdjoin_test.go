package sqleng

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"semandaq/internal/fdset"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newFDJoinStore builds log (16 rows) joining dept (8 rows) on the
// composite key (DID, DNAME), where DID -> DNAME genuinely holds on dept
// (DIDs are unique). A third column CHAIN exercises transitive licensing:
// DID -> DNAME -> CHAIN.
func newFDJoinStore(t *testing.T) *relstore.Store {
	t.Helper()
	store := relstore.NewStore()
	log, err := store.Create(schema.New("log", "LID", "DID", "DNAME", "CHAIN"))
	if err != nil {
		t.Fatal(err)
	}
	dept, err := store.Create(schema.New("dept", "DID", "DNAME", "CHAIN", "CITY"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dept.MustInsert(relstore.Tuple{
			types.NewInt(int64(i)),
			types.NewString("d" + string(rune('a'+i))),
			types.NewString("c" + string(rune('a'+i%4))),
			types.NewString("city" + string(rune('a'+i%3))),
		})
	}
	for i := 0; i < 16; i++ {
		log.MustInsert(relstore.Tuple{
			types.NewInt(int64(100 + i)),
			types.NewInt(int64(i % 8)),
			types.NewString("d" + string(rune('a'+i%8))),
			types.NewString("c" + string(rune('a'+(i%8)%4))),
		})
	}
	return store
}

// deptFDs registers the dependencies that hold on dept: DID -> DNAME and
// DNAME -> CHAIN (positions 0 -> 1 and 1 -> 2).
func deptFDs() *fdset.Set {
	s := fdset.New(4)
	s.Add([]int{0}, 1)
	s.Add([]int{1}, 2)
	return s
}

const fdJoinQuery = `SELECT l.LID, d.CITY FROM log l, dept d
	WHERE l.DID = d.DID AND l.DNAME = d.DNAME AND l.CHAIN = d.CHAIN`

// TestFDCollapseExplain pins the planner rewrite: without registered FDs
// the composite key builds a hash index; with them the join collapses to a
// PLI probe on DID with exact statistics (8 unique DIDs -> expect=1
// exactly) and EXPLAIN names the licensing derivations, including the
// transitive one for CHAIN.
func TestFDCollapseExplain(t *testing.T) {
	store := newFDJoinStore(t)
	e := New(store)

	lines := planLines(t, e, "EXPLAIN "+fdJoinQuery)
	if indexOfLine(lines, "join inner hash") < 0 {
		t.Fatalf("expected hash join without FDs:\n%s", strings.Join(lines, "\n"))
	}

	e.RegisterFDs("dept", deptFDs())
	lines = planLines(t, e, "EXPLAIN "+fdJoinQuery)
	text := strings.Join(lines, "\n")
	if indexOfLine(lines, "join inner pli", "fd-collapsed", "classes=8", "expect=1") < 0 {
		t.Errorf("collapsed join line missing:\n%s", text)
	}
	if indexOfLine(lines, "fd-collapse: lead DID guards DNAME via [DID]->[DNAME]") < 0 {
		t.Errorf("direct licence line missing:\n%s", text)
	}
	if indexOfLine(lines, "fd-collapse: lead DID guards CHAIN via [DID]->[DNAME], [DNAME]->[CHAIN]") < 0 {
		t.Errorf("transitive licence line missing:\n%s", text)
	}

	e.RegisterFDs("dept", nil)
	lines = planLines(t, e, "EXPLAIN "+fdJoinQuery)
	if indexOfLine(lines, "join inner hash") < 0 {
		t.Errorf("unregistering FDs did not restore the hash join:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFDCollapseIdentity holds the collapsed path to the legacy
// materializing oracle, both when the registered FD holds and — the
// soundness case — when it is stale: dept2 breaks DID -> DNAME, so the
// guards must filter the lead class down to the true matches.
func TestFDCollapseIdentity(t *testing.T) {
	store := newFDJoinStore(t)
	dept2, err := store.Create(schema.New("dept2", "DID", "DNAME", "CITY"))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate DIDs with conflicting DNAMEs: the registered FD is false.
	for i := 0; i < 8; i++ {
		dept2.MustInsert(relstore.Tuple{
			types.NewInt(int64(i % 4)),
			types.NewString("d" + string(rune('a'+i))),
			types.NewString("city" + string(rune('a'+i%3))),
		})
	}
	staleFDs := fdset.New(3)
	staleFDs.Add([]int{0}, 1)

	queries := []string{
		fdJoinQuery,
		`SELECT l.LID, d.DNAME FROM log l, dept d
		 WHERE l.DID = d.DID AND l.DNAME = d.DNAME ORDER BY l.LID DESC LIMIT 5`,
		`SELECT d.CITY, COUNT(*) FROM log l, dept d
		 WHERE l.DID = d.DID AND l.DNAME = d.DNAME GROUP BY d.CITY`,
		`SELECT l.LID, d2.CITY FROM log l LEFT JOIN dept2 d2
		 ON l.DID = d2.DID AND l.DNAME = d2.DNAME`,
		`SELECT l.LID FROM log l, dept2 d2
		 WHERE l.DID = d2.DID AND l.DNAME = d2.DNAME`,
	}

	collapsed := New(store)
	collapsed.RegisterFDs("dept", deptFDs())
	collapsed.RegisterFDs("dept2", staleFDs)
	oracle := New(store)
	oracle.rowScan = true

	for _, q := range queries {
		got, err := collapsed.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := oracle.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\ncollapsed: %v\noracle:    %v", q, got.Rows, want.Rows)
		}
	}
}

// TestFDCollapseProbeGate is the D9 probe-work gate in miniature: with the
// FD holding on the data, the collapsed join scans each touched lead class
// at most once (memoized guard filtering), so class scans <= class count
// and no hash index is ever built; without FDs the hash build scans the
// whole right side.
func TestFDCollapseProbeGate(t *testing.T) {
	store := newFDJoinStore(t)
	e := New(store)
	e.RegisterFDs("dept", deptFDs())

	if _, err := e.QueryContext(context.Background(), fdJoinQuery); err != nil {
		t.Fatal(err)
	}
	ops := e.OpStats()
	if ops.CollapsedProbes == 0 || ops.CollapsedBuilds == 0 {
		t.Fatalf("collapsed path not exercised: %+v", ops)
	}
	if ops.CollapsedBuilds > 8 {
		t.Errorf("collapsed class scans %d exceed lead class count 8", ops.CollapsedBuilds)
	}
	if ops.HashBuildRows != 0 || ops.HashProbes != 0 {
		t.Errorf("collapsed run still built a hash index: %+v", ops)
	}

	e.RegisterFDs("dept", nil)
	e.ResetOpStats()
	if _, err := e.QueryContext(context.Background(), fdJoinQuery); err != nil {
		t.Fatal(err)
	}
	ops = e.OpStats()
	if ops.HashBuildRows != 8 {
		t.Errorf("hash build scanned %d rows, want the full right side (8)", ops.HashBuildRows)
	}
	if ops.CollapsedProbes != 0 {
		t.Errorf("uncollapsed run used the collapsed path: %+v", ops)
	}
}
