package sqleng

import (
	"context"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func pinTable(t *testing.T) (*relstore.Store, *relstore.Table) {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("p", "K", "V"))
	if err != nil {
		t.Fatal(err)
	}
	for i, kv := range [][2]string{{"a", "1"}, {"a", "1"}, {"b", "2"}} {
		_ = i
		tab.MustInsert(relstore.Tuple{types.NewString(kv[0]), types.NewString(kv[1])})
	}
	return store, tab
}

// TestEnginePinFreezesReads: a pinned engine keeps answering from the
// pinned version while the live table mutates; unpinning follows the live
// table again. Both scan paths honor the pin.
func TestEnginePinFreezesReads(t *testing.T) {
	for _, rowScan := range []bool{false, true} {
		store, tab := pinTable(t)
		e := New(store)
		e.rowScan = rowScan
		snap := tab.Snapshot()
		e.Pin(snap)

		tab.MustInsert(relstore.Tuple{types.NewString("c"), types.NewString("3")})
		tab.SetCell(0, 1, types.NewString("mutated"))

		res, err := e.QueryContext(context.Background(), `SELECT K, V FROM p`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("rowScan=%v: pinned read saw %d rows, want 3", rowScan, len(res.Rows))
		}
		if got := res.Rows[0][1].Str(); got != "1" {
			t.Fatalf("rowScan=%v: pinned read saw mutated cell %q", rowScan, got)
		}
		if v := res.Versions["p"]; v != snap.Version() {
			t.Fatalf("rowScan=%v: result version %d, want pinned %d", rowScan, v, snap.Version())
		}

		e.Unpin("p")
		res, err = e.QueryContext(context.Background(), `SELECT K, V FROM p`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 || res.Rows[0][1].Str() != "mutated" {
			t.Fatalf("rowScan=%v: unpinned read still frozen: %v", rowScan, res.Rows)
		}
		if v := res.Versions["p"]; v != tab.Version() {
			t.Fatalf("rowScan=%v: unpinned version %d, want %d", rowScan, v, tab.Version())
		}
	}
}

// TestSelfJoinSingleVersion: a self-join resolves both references to ONE
// snapshot — the versions map carries a single entry for the table, and
// the join sees a consistent row set.
func TestSelfJoinSingleVersion(t *testing.T) {
	store, tab := pinTable(t)
	e := New(store)
	res, err := e.QueryContext(context.Background(), `SELECT t1.K FROM p t1, p t2 WHERE t1.K = t2.K AND t1.V <> t2.V`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("clean self-join returned %d rows", len(res.Rows))
	}
	if len(res.Versions) != 1 || res.Versions["p"] != tab.Version() {
		t.Fatalf("self-join versions = %v, want one entry at %d", res.Versions, tab.Version())
	}
}

// TestDMLStampsVersion: INSERT/UPDATE/DELETE results carry the table
// version the statement produced.
func TestDMLStampsVersion(t *testing.T) {
	store, tab := pinTable(t)
	e := New(store)
	res, err := e.QueryContext(context.Background(), `INSERT INTO p VALUES ('d', '4')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Versions["p"] != tab.Version() {
		t.Fatalf("insert version %d, want %d", res.Versions["p"], tab.Version())
	}
	res, err = e.QueryContext(context.Background(), `UPDATE p SET V = '9' WHERE K = 'b'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 || res.Versions["p"] != tab.Version() {
		t.Fatalf("update = %+v, table at %d", res, tab.Version())
	}
	res, err = e.QueryContext(context.Background(), `DELETE FROM p WHERE K = 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 || res.Versions["p"] != tab.Version() {
		t.Fatalf("delete = %+v, table at %d", res, tab.Version())
	}
}
