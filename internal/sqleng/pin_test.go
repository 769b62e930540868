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
// table again. The engine and the reference both honor the pin.
func TestEnginePinFreezesReads(t *testing.T) {
	store, tab := pinTable(t)
	e := New(store)
	snap := tab.Snapshot()
	e.Pin(snap)

	tab.MustInsert(relstore.Tuple{types.NewString("c"), types.NewString("3")})
	tab.SetCell(0, 1, types.NewString("mutated"))

	for _, run := range []func(*Engine, string) (*Result, error){
		func(e *Engine, q string) (*Result, error) { return e.QueryContext(context.Background(), q) },
		refQuery,
	} {
		e.Pin(snap)
		res, err := run(e, `SELECT K, V FROM p`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("pinned read saw %d rows, want 3", len(res.Rows))
		}
		if got := res.Rows[0][1].Str(); got != "1" {
			t.Fatalf("pinned read saw mutated cell %q", got)
		}
		if v := res.Versions["p"]; v != snap.Version() {
			t.Fatalf("result version %d, want pinned %d", v, snap.Version())
		}

		e.Unpin("p")
		res, err = run(e, `SELECT K, V FROM p`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 || res.Rows[0][1].Str() != "mutated" {
			t.Fatalf("unpinned read still frozen: %v", res.Rows)
		}
		if v := res.Versions["p"]; v != tab.Version() {
			t.Fatalf("unpinned version %d, want %d", v, tab.Version())
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
