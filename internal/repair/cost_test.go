package repair

import (
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel()
	// Weight defaults to 1, distance to normalized DL.
	c := m.Cost(0, "A", types.NewString("abcd"), types.NewString("abcd"))
	if c != 0 {
		t.Errorf("identical cost = %v", c)
	}
	c = m.Cost(0, "A", types.NewString("abcd"), types.NewString("wxyz"))
	if c != 1 {
		t.Errorf("disjoint cost = %v", c)
	}
	c = m.Cost(0, "A", types.NewString("abcd"), types.NewString("abdc"))
	if c <= 0 || c >= 1 {
		t.Errorf("transposition cost = %v, want in (0,1)", c)
	}
}

func TestCustomWeightAndDistance(t *testing.T) {
	m := CostModel{
		Weight: func(id relstore.TupleID, attr string) float64 {
			if attr == "CNT" {
				return 5
			}
			return 1
		},
		Distance: func(a, b types.Value) float64 {
			if a.Equal(b) {
				return 0
			}
			return 0.5
		},
	}
	if c := m.Cost(1, "CNT", types.NewString("x"), types.NewString("y")); c != 2.5 {
		t.Errorf("weighted cost = %v", c)
	}
	if c := m.Cost(1, "STR", types.NewString("x"), types.NewString("y")); c != 0.5 {
		t.Errorf("unweighted cost = %v", c)
	}
	if c := m.Cost(1, "STR", types.NewString("x"), types.NewString("x")); c != 0 {
		t.Errorf("identical custom cost = %v", c)
	}
}

func TestPickCheapestTieBreak(t *testing.T) {
	m := DefaultCostModel()
	old := types.NewString("zz")
	// Two candidates equidistant from old: tie broken by value key.
	best, alts := pickCheapest(m, 0, "A", old, []types.Value{
		types.NewString("bb"), types.NewString("aa"),
	})
	if best.Value.Str() != "aa" {
		t.Errorf("tie-break winner = %v", best.Value)
	}
	if len(alts) != 1 || alts[0].Value.Str() != "bb" {
		t.Errorf("alts = %v", alts)
	}
	// Single candidate: no alternatives.
	best, alts = pickCheapest(m, 0, "A", old, []types.Value{types.NewString("only")})
	if best.Value.Str() != "only" || len(alts) != 0 {
		t.Errorf("single candidate = %v, %v", best, alts)
	}
}
