package cfd

import (
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

func TestEncodeTableau(t *testing.T) {
	store := relstore.NewStore()
	c := phi2()
	c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	tab, err := EncodeTableau(store, c, "")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema().Name != "cfd_tp_phi2" {
		t.Errorf("name = %q", tab.Schema().Name)
	}
	if tab.Schema().Arity() != 3 || tab.Len() != 2 {
		t.Errorf("shape = %d cols, %d rows", tab.Schema().Arity(), tab.Len())
	}
	rows := tab.Snapshot().Rows()
	if rows[0][0].Str() != "UK" || rows[0][1].Str() != "_" || rows[0][2].Str() != "_" {
		t.Errorf("row0 = %v", rows[0])
	}
	// Registered in the store.
	if _, ok := store.Table("cfd_tp_phi2"); !ok {
		t.Error("tableau not registered")
	}
}

func TestEncodePreservesTypes(t *testing.T) {
	store := relstore.NewStore()
	tab, err := EncodeTableau(store, phi4(), "tp4")
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Snapshot().Rows()
	if rows[0][0].Kind() != types.KindInt || rows[0][0].Int() != 44 {
		t.Errorf("CC pattern = %v (%v)", rows[0][0], rows[0][0].Kind())
	}
}

func TestEncodeReplacesPrevious(t *testing.T) {
	store := relstore.NewStore()
	c := phi2()
	if _, err := EncodeTableau(store, c, ""); err != nil {
		t.Fatal(err)
	}
	c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	tab, err := EncodeTableau(store, c, "")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Errorf("re-encode rows = %d", tab.Len())
	}
	got, _ := store.Table("cfd_tp_phi2")
	if got != tab {
		t.Error("store should hold the new tableau")
	}
}
