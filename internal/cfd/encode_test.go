package cfd

import (
	"testing"

	"semandaq/internal/types"
)

func TestEncodeTableau(t *testing.T) {
	c := phi2()
	c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	tab, err := EncodeTableau(c, "tp2")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema().Name != "tp2" {
		t.Errorf("name = %q", tab.Schema().Name)
	}
	if tab.Schema().Arity() != 3 || tab.Len() != 2 {
		t.Errorf("shape = %d cols, %d rows", tab.Schema().Arity(), tab.Len())
	}
	rows := tab.Snapshot().Rows()
	if rows[0][0].Str() != "UK" || rows[0][1].Str() != "_" || rows[0][2].Str() != "_" {
		t.Errorf("row0 = %v", rows[0])
	}
}

func TestEncodePreservesTypes(t *testing.T) {
	tab, err := EncodeTableau(phi4(), "tp4")
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Snapshot().Rows()
	if rows[0][0].Kind() != types.KindInt || rows[0][0].Int() != 44 {
		t.Errorf("CC pattern = %v (%v)", rows[0][0], rows[0][0].Kind())
	}
}

// TestEncodeReplacesPrevious: an encoding is a new table of the tableau as
// it stands; re-encoding after a pattern is added replaces it for the
// caller and leaves the earlier table as it was.
func TestEncodeReplacesPrevious(t *testing.T) {
	c := phi2()
	old, err := EncodeTableau(c, "tp2")
	if err != nil {
		t.Fatal(err)
	}
	c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	tab, err := EncodeTableau(c, "tp2")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || old.Len() != 1 || tab == old {
		t.Errorf("re-encode rows = %d, the earlier encoding's %d", tab.Len(), old.Len())
	}
}
