// Package cfd implements conditional functional dependencies, the
// constraint formalism at the core of Semandaq (Fan, Geerts, Jia,
// Kementsietsidis, TODS 2008).
//
// A CFD φ = (R: X → Y, Tp) consists of a standard FD X → Y embedded in it
// together with a pattern tableau Tp: each pattern tuple assigns to every
// attribute of X ∪ Y either a constant or the "don't care" wildcard "_".
// The embedded FD must hold on all tuples matching the LHS pattern, and
// those tuples must also match the RHS pattern. The paper's examples:
//
//	φ1: customer: [CNT=_, ZIP=_] -> [CITY=_]      (a classical FD)
//	φ2: customer: [CNT=UK, ZIP=_] -> [STR=_]      (FD holding only in the UK)
//	φ4: customer: [CC=44] -> [CNT=UK]             (a constant binding)
package cfd

import (
	"fmt"
	"strings"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// WildcardToken is the textual representation of the "don't care" symbol,
// both in the parse syntax and in the relational encoding of tableaux.
const WildcardToken = "_"

// PatternValue is one cell of a pattern tuple: a constant or the wildcard.
type PatternValue struct {
	Wildcard bool
	Const    types.Value
}

// Wild is the wildcard pattern value.
var Wild = PatternValue{Wildcard: true}

// Constant builds a constant pattern value.
func Constant(v types.Value) PatternValue { return PatternValue{Const: v} }

// ConstStr builds a constant string pattern value.
func ConstStr(s string) PatternValue { return Constant(types.Parse(s)) }

// Matches reports whether a data value matches this pattern cell:
// wildcards match everything (including NULL); constants match equal values.
func (p PatternValue) Matches(v types.Value) bool {
	if p.Wildcard {
		return true
	}
	return p.Const.Equal(v)
}

// String renders the pattern value ("_" for wildcards).
func (p PatternValue) String() string {
	if p.Wildcard {
		return WildcardToken
	}
	return p.Const.String()
}

// Equal reports pattern-cell equality.
func (p PatternValue) Equal(o PatternValue) bool {
	if p.Wildcard != o.Wildcard {
		return false
	}
	return p.Wildcard || p.Const.Equal(o.Const)
}

// PatternTuple assigns a PatternValue to every LHS and RHS attribute of the
// embedded FD (in the CFD's attribute order).
type PatternTuple struct {
	LHS []PatternValue
	RHS []PatternValue
}

// Clone deep-copies the pattern tuple.
func (pt PatternTuple) Clone() PatternTuple {
	l := make([]PatternValue, len(pt.LHS))
	copy(l, pt.LHS)
	r := make([]PatternValue, len(pt.RHS))
	copy(r, pt.RHS)
	return PatternTuple{LHS: l, RHS: r}
}

// Equal reports component-wise pattern equality.
func (pt PatternTuple) Equal(o PatternTuple) bool {
	if len(pt.LHS) != len(o.LHS) || len(pt.RHS) != len(o.RHS) {
		return false
	}
	for i := range pt.LHS {
		if !pt.LHS[i].Equal(o.LHS[i]) {
			return false
		}
	}
	for i := range pt.RHS {
		if !pt.RHS[i].Equal(o.RHS[i]) {
			return false
		}
	}
	return true
}

// String renders the pattern tuple as ([a, b] || [c]).
func (pt PatternTuple) String() string {
	return "(" + joinPatterns(pt.LHS) + " || " + joinPatterns(pt.RHS) + ")"
}

func joinPatterns(ps []PatternValue) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// CFD is a conditional functional dependency over one relation.
type CFD struct {
	// ID is a short identifier used in reports (e.g. "phi2"). Optional.
	ID string
	// Table names the relation the CFD constrains.
	Table string
	// LHS and RHS are the attributes of the embedded FD X → Y.
	LHS []string
	RHS []string
	// Tableau is the pattern tableau Tp; it must be non-empty and every
	// pattern tuple must have len(LHS) LHS cells and len(RHS) RHS cells.
	Tableau []PatternTuple
}

// New builds a single-pattern CFD. It panics on arity mismatch (the
// programmatic constructors are used with literal slices; the text parser
// returns errors instead).
func New(id, table string, lhs []string, rhs []string, pattern PatternTuple) *CFD {
	c := &CFD{ID: id, Table: table, LHS: lhs, RHS: rhs, Tableau: []PatternTuple{pattern}}
	if err := c.checkArity(); err != nil {
		panic(err)
	}
	return c
}

// NewFD builds the CFD form of a classical FD X → Y (all-wildcard pattern).
func NewFD(id, table string, lhs []string, rhs []string) *CFD {
	pt := PatternTuple{
		LHS: make([]PatternValue, len(lhs)),
		RHS: make([]PatternValue, len(rhs)),
	}
	for i := range pt.LHS {
		pt.LHS[i] = Wild
	}
	for i := range pt.RHS {
		pt.RHS[i] = Wild
	}
	return New(id, table, lhs, rhs, pt)
}

func (c *CFD) checkArity() error {
	if len(c.LHS) == 0 {
		return fmt.Errorf("cfd %s: empty LHS", c.ID)
	}
	if len(c.RHS) == 0 {
		return fmt.Errorf("cfd %s: empty RHS", c.ID)
	}
	if len(c.Tableau) == 0 {
		return fmt.Errorf("cfd %s: empty tableau", c.ID)
	}
	for _, pt := range c.Tableau {
		if len(pt.LHS) != len(c.LHS) || len(pt.RHS) != len(c.RHS) {
			return fmt.Errorf("cfd %s: pattern arity mismatch", c.ID)
		}
	}
	return nil
}

// Validate checks the CFD's shape and that every attribute exists in sc.
func (c *CFD) Validate(sc *schema.Relation) error {
	if err := c.checkArity(); err != nil {
		return err
	}
	if c.Table != "" && !strings.EqualFold(c.Table, sc.Name) {
		return fmt.Errorf("cfd %s: relation %q does not match schema %q", c.ID, c.Table, sc.Name)
	}
	seen := map[string]bool{}
	for _, a := range append(append([]string{}, c.LHS...), c.RHS...) {
		if !sc.Has(a) {
			return fmt.Errorf("cfd %s: relation %s has no attribute %q", c.ID, sc.Name, a)
		}
		key := strings.ToLower(a)
		if seen[key] {
			return fmt.Errorf("cfd %s: attribute %q appears twice", c.ID, a)
		}
		seen[key] = true
	}
	return nil
}

// FDKey identifies the embedded FD (table + X → Y), used to merge tableaux
// of CFDs sharing an embedded FD as the SQL detection technique requires.
func (c *CFD) FDKey() string {
	norm := func(attrs []string) string {
		low := make([]string, len(attrs))
		for i, a := range attrs {
			low[i] = strings.ToLower(a)
		}
		return strings.Join(low, ",")
	}
	return strings.ToLower(c.Table) + ":" + norm(c.LHS) + "->" + norm(c.RHS)
}

// AddPattern appends a pattern tuple to the tableau.
func (c *CFD) AddPattern(pt PatternTuple) error {
	if len(pt.LHS) != len(c.LHS) || len(pt.RHS) != len(c.RHS) {
		return fmt.Errorf("cfd %s: pattern arity mismatch", c.ID)
	}
	c.Tableau = append(c.Tableau, pt)
	return nil
}

// Clone deep-copies the CFD.
func (c *CFD) Clone() *CFD {
	out := &CFD{
		ID:    c.ID,
		Table: c.Table,
		LHS:   append([]string(nil), c.LHS...),
		RHS:   append([]string(nil), c.RHS...),
	}
	for _, pt := range c.Tableau {
		out.Tableau = append(out.Tableau, pt.Clone())
	}
	return out
}

// IsConstantPattern reports whether pattern i has only constants on the RHS
// (every matching tuple is checked against fixed values; violations are
// single-tuple).
func (c *CFD) IsConstantPattern(i int) bool {
	for _, p := range c.Tableau[i].RHS {
		if p.Wildcard {
			return false
		}
	}
	return true
}

// HasVariablePattern reports whether any pattern has a wildcard RHS cell
// (such patterns can only be violated by tuple pairs).
func (c *CFD) HasVariablePattern() bool {
	for i := range c.Tableau {
		if !c.IsConstantPattern(i) {
			return true
		}
	}
	return false
}

// Normalize rewrites the CFD into the normal form of the TODS paper: one
// CFD per RHS attribute, so every produced CFD has a single-attribute RHS.
// Pattern tuples are projected accordingly. IDs get a ".<attr>" suffix when
// splitting occurs.
func (c *CFD) Normalize() []*CFD {
	if len(c.RHS) == 1 {
		return []*CFD{c.Clone()}
	}
	out := make([]*CFD, 0, len(c.RHS))
	for j, attr := range c.RHS {
		nc := &CFD{
			ID:    fmt.Sprintf("%s.%s", c.ID, attr),
			Table: c.Table,
			LHS:   append([]string(nil), c.LHS...),
			RHS:   []string{attr},
		}
		for _, pt := range c.Tableau {
			nc.Tableau = append(nc.Tableau, PatternTuple{
				LHS: append([]PatternValue(nil), pt.LHS...),
				RHS: []PatternValue{pt.RHS[j]},
			})
		}
		out = append(out, nc)
	}
	return out
}

// MatchLHS reports whether the tuple (with attribute positions lhsPos,
// aligned with c.LHS) matches the LHS of pattern i.
func (c *CFD) MatchLHS(i int, row relstore.Tuple, lhsPos []int) bool {
	pt := c.Tableau[i]
	for k, p := range pt.LHS {
		if !p.Matches(row[lhsPos[k]]) {
			return false
		}
	}
	return true
}

// String renders the CFD in the paper's notation, one pattern per line for
// multi-pattern tableaux:
//
//	customer: [CNT=UK, ZIP=_] -> [STR=_]
func (c *CFD) String() string {
	var b strings.Builder
	for i, pt := range c.Tableau {
		if i > 0 {
			b.WriteByte('\n')
		}
		if c.Table != "" {
			b.WriteString(c.Table)
			b.WriteString(": ")
		}
		b.WriteByte('[')
		for k, a := range c.LHS {
			if k > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a)
			b.WriteByte('=')
			b.WriteString(patternToken(pt.LHS[k]))
		}
		b.WriteString("] -> [")
		for k, a := range c.RHS {
			if k > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a)
			b.WriteByte('=')
			b.WriteString(patternToken(pt.RHS[k]))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// patternToken renders a pattern cell in the parseable syntax so that it
// parses back to the same value of the same kind: wildcards as "_", string
// constants quoted unless the bare token reads back as that very string (no
// delimiters, no edge space the parser would trim, not "_", and not text
// such as "42" or "true" that parses as another kind), and floats with a
// ".0" when their shortest form would read back as an INT.
func patternToken(p PatternValue) string {
	if p.Wildcard {
		return WildcardToken
	}
	s := p.Const.String()
	switch p.Const.Kind() {
	case types.KindString:
		if back := types.Parse(s); back.Kind() != types.KindString || back.Str() != s ||
			s == WildcardToken || strings.TrimSpace(s) != s || strings.ContainsAny(s, ",[]'= \t") {
			return "'" + strings.ReplaceAll(s, "'", "''") + "'"
		}
	case types.KindFloat:
		if types.Parse(s).Kind() != types.KindFloat {
			return s + ".0"
		}
	}
	return s
}

// MergeByFD groups CFDs by embedded FD and merges their tableaux, the
// preprocessing step the SQL detection technique relies on: a whole set of
// CFDs with the same embedded FD is checked with just two SQL queries.
// IDs of merged groups join with "+". Order is preserved.
func MergeByFD(cfds []*CFD) []*CFD {
	var order []string
	groups := map[string]*CFD{}
	for _, c := range cfds {
		key := c.FDKey()
		if g, ok := groups[key]; ok {
			for _, pt := range c.Tableau {
				dup := false
				for _, have := range g.Tableau {
					if have.Equal(pt) {
						dup = true
						break
					}
				}
				if !dup {
					g.Tableau = append(g.Tableau, pt.Clone())
				}
			}
			if c.ID != "" {
				g.ID = g.ID + "+" + c.ID
			}
			continue
		}
		groups[key] = c.Clone()
		order = append(order, key)
	}
	out := make([]*CFD, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out
}
