// Code compilation. The pipeline carries a cursor — one snapshot row index
// per scan — instead of a row of Values, and every conjunct, join key,
// GROUP BY key and COUNT operand whose leaves are bare columns, literals and
// COALESCE(col, literal) under =, <>, IS NOT DISTINCT FROM, IS [NOT] NULL,
// IN (literals), AND/OR/NOT is decided at the cursor by three-valued integer
// compares on the columns' Equal-class codes. Two columns (two dictionaries)
// meet through a translation table built once per plan from EqCodeOf: one
// dictionary lookup per distinct value, none per row. Code compares agree
// with the value-level evaluator because two stored values share an
// Equal-class code iff they Compare as equal: the codes are the classes
// Value.Key() induces (relstore/columnar.go), and Compare orders INT
// against FLOAT exactly, so Equal is that same equivalence (types/value.go,
// TestCompareIntFloatExactly).
package sqleng

import (
	"cmp"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// codeFn is a code-compiled predicate over the cursor, in boolState's
// encoding: 0 false, 1 true, 2 unknown.
type codeFn func(cur []int32) uint8

// Markers beside a column's Equal-class codes in a term's own code space.
const (
	codeAbsent int32 = -1 // the value equals no value of the term
	codeNull   int32 = -2 // SQL NULL: every comparison with it is unknown
)

// codeTerm is a code-level operand: a column of one scan, optionally
// COALESCEd onto a literal. Its own code space is the column's Equal-class
// codes plus up to two virtual codes past the dictionary: CodeSpace() for a
// default the column lacks, CodeSpace()+1 for NULL as a value of its own
// (the IS NOT DISTINCT FROM reading) when the column stores no NULL.
type codeTerm struct {
	src    Expr
	scan   int
	col    *relstore.Column
	dflt   types.Value // the COALESCE default; NULL when there is none
	null   int32       // the column's NULL code, -3 when it stores none
	nullAs int32       // code of a NULL operand: codeNull, or a real one when null-safe
	def    int32       // code a NULL row takes: the default's, else nullAs
}

// termOf recognises e as a code-level operand; nullSafe selects the
// IS NOT DISTINCT FROM reading of NULL. A literal reports (nil, its value).
func (p *selectPlan) termOf(e Expr, nullSafe bool) (*codeTerm, types.Value, bool) {
	ref, dflt := e, types.Null
	switch n := e.(type) {
	case *Literal:
		return nil, n.Value, true
	case *FuncExpr:
		if n.Name != "COALESCE" {
			return nil, types.Null, false
		}
		ref, dflt = n.Args[0], n.Args[1].(*Literal).Value
	}
	cr, ok := ref.(*ColumnRef)
	if !ok {
		return nil, types.Null, false
	}
	pos, err := p.cat.resolve(cr)
	if err != nil {
		return nil, types.Null, false
	}
	s := p.scanOf(pos)
	if pos == p.scans[s].start {
		return nil, types.Null, false // the synthetic _tid has no dictionary
	}
	col := p.scans[s].cnr.Col(pos - p.scans[s].start - 1)
	t := &codeTerm{src: e, scan: s, col: col, dflt: dflt, null: -3, nullAs: codeNull}
	if nc, has := col.NullCode(); has {
		t.null = int32(nc)
	}
	if nullSafe {
		t.nullAs = int32(col.CodeSpace()) + 1
		if t.null >= 0 {
			t.nullAs = t.null
		}
	}
	t.def = t.nullAs
	if c, has := col.EqCodeOf(dflt); has && !dflt.IsNull() {
		t.def = int32(c)
	} else if !dflt.IsNull() {
		t.def = int32(col.CodeSpace())
	}
	return t, types.Null, true
}

// own returns the term's code at the cursor.
func (t *codeTerm) own(cur []int32) int32 {
	if c := int32(t.col.EqCode(int(cur[t.scan]))); c != t.null {
		return c
	}
	return t.def
}

// exact returns the index of the cursor's row into a translation table out
// of this term: its exact dictionary code.
func (t *codeTerm) exact(cur []int32) int { return int(t.col.Code(int(cur[t.scan]))) }

// codeOf maps an arbitrary value into the term's own code space.
func (t *codeTerm) codeOf(v types.Value) int32 {
	if v.IsNull() {
		return t.nullAs
	}
	if c, ok := t.col.EqCodeOf(v); ok {
		return int32(c)
	}
	if !t.dflt.IsNull() && v.Equal(t.dflt) {
		return t.def
	}
	return codeAbsent
}

// xlatTab translates term a's exact codes into term b's own space. It is
// built on first use, so a plan that never evaluates the comparison never
// pays for it.
type xlatTab struct {
	label string // "a→b", for EXPLAIN and the per-plan sharing
	a, b  *codeTerm
	tab   []int32
}

func (x *xlatTab) get() []int32 {
	if x.tab == nil {
		a, b := x.a, x.b
		x.tab = make([]int32, a.col.CodeSpace())
		// A smaller b is looked up in a instead, one lookup per value of b:
		// its classes are filed under a's canonical codes first, every other
		// code of a then reads its canonical's entry.
		small := a.col != b.col && b.col.Card() < a.col.Card()
		if small {
			for c := range x.tab {
				x.tab[c] = codeAbsent
			}
			for cb := -1; cb < b.col.CodeSpace(); cb++ {
				v := b.dflt // cb -1: a default b's column may lack
				if cb >= 0 {
					v = b.col.Value(uint32(cb))
				}
				if q, ok := a.col.EqCodeOf(v); ok && !v.IsNull() {
					x.tab[q] = b.codeOf(v)
				}
			}
		}
		for c := range x.tab {
			switch {
			case int32(c) == a.null:
				x.tab[c] = b.codeOf(a.dflt)
			case a.col == b.col: // a self-join: the dictionary is shared
				x.tab[c] = int32(a.col.EqOf(uint32(c)))
			case small:
				x.tab[c] = x.tab[a.col.EqOf(uint32(c))]
			default:
				x.tab[c] = b.codeOf(a.col.Value(uint32(c)))
			}
		}
	}
	return x.tab
}

// xlat returns the plan's translation table from a to b, one per ordered
// pair of operands (and NULL reading).
func (p *selectPlan) xlat(a, b *codeTerm) *xlatTab {
	label := exprString(a.src) + "→" + exprString(b.src)
	if b.nullAs != codeNull {
		label += " null-safe"
	}
	for _, x := range p.xlats {
		if x.label == label {
			return x
		}
	}
	x := &xlatTab{label: label, a: a, b: b}
	p.xlats = append(p.xlats, x)
	return x
}

// cmp3 compares two codes of one space under three-valued logic.
func cmp3(x, y int32, negate bool) uint8 {
	if x == codeNull || y == codeNull {
		return 2
	}
	if (x == y) != negate {
		return 1
	}
	return 0
}

// codeCmp compiles l = r (negate: <>; nullSafe: IS NOT DISTINCT FROM).
func (p *selectPlan) codeCmp(l, r Expr, nullSafe, negate bool) (codeFn, bool) {
	a, av, ok1 := p.termOf(l, nullSafe)
	b, bv, ok2 := p.termOf(r, nullSafe)
	if !ok1 || !ok2 || (a == nil && b == nil) {
		return nil, false
	}
	if b == nil || (a != nil && a.col.Card() > b.col.Card()) {
		a, av, b = b, bv, a // translate the literal, or the smaller dictionary
	}
	if a == nil {
		x := b.codeOf(av)
		return func(cur []int32) uint8 { return cmp3(x, b.own(cur), negate) }, true
	}
	x := p.xlat(a, b)
	return func(cur []int32) uint8 { return cmp3(x.get()[a.exact(cur)], b.own(cur), negate) }, true
}

// compileCode compiles a boolean expression to a code predicate, reporting
// false for any shape outside the code-compilable subset (which then runs
// value-level on the lazily filled row buffer).
func (p *selectPlan) compileCode(e Expr) (codeFn, bool) {
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "=", "<>":
			return p.codeCmp(n.L, n.R, false, n.Op == "<>")
		case opNullSafeEq:
			return p.codeCmp(n.L, n.R, true, false)
		case "AND", "OR":
			l, ok1 := p.compileCode(n.L)
			r, ok2 := p.compileCode(n.R)
			if !ok1 || !ok2 {
				return nil, false
			}
			stop := uint8(0) // the operand value that decides an AND
			if n.Op == "OR" {
				stop = 1
			}
			return func(cur []int32) uint8 {
				lv := l(cur)
				if lv == stop {
					return stop
				}
				if rv := r(cur); rv == stop || rv == lv {
					return rv
				}
				return 2
			}, true
		}
	case *UnaryExpr:
		if sub, ok := p.compileCode(n.E); ok {
			return func(cur []int32) uint8 {
				if v := sub(cur); v != 2 {
					return 1 - v
				}
				return 2
			}, true
		}
	case *IsNullExpr:
		if t, _, ok := p.termOf(n.E, false); ok && t != nil {
			not := n.Not
			return func(cur []int32) uint8 {
				if (t.own(cur) == codeNull) != not {
					return 1
				}
				return 0
			}, true
		}
	case *InExpr:
		t, _, ok := p.termOf(n.E, false)
		if !ok || t == nil {
			return nil, false
		}
		var codes []int32
		hit, miss := uint8(1), uint8(0)
		if n.Not {
			hit, miss = 0, 1
		}
		for _, le := range n.List {
			lit, ok := le.(*Literal)
			if !ok {
				return nil, false
			}
			if c := t.codeOf(lit.Value); c >= 0 {
				codes = append(codes, c)
			} else if c == codeNull {
				miss = 2 // beside a NULL literal a miss is unknown
			}
		}
		return func(cur []int32) uint8 {
			x := t.own(cur)
			if x == codeNull {
				return 2
			}
			for _, c := range codes {
				if c == x {
					return hit
				}
			}
			return miss
		}, true
	}
	return nil, false
}

// countFn is a HAVING decided on a group's counts alone.
type countFn func(counts []aggCount) bool

// compileCounts compiles a HAVING made of =, <>, <, <=, >, >= between COUNTs
// and INT literals under AND/OR: a COUNT is an INT and never NULL, so the
// logic is two-valued and a compare is Value.Compare's int64 one. Any other
// shape — a FLOAT or STRING literal, a column, NOT — reports nil and stays
// value-level.
func (s *streamSink) compileCounts(e Expr, env map[string]int) countFn {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return nil
	}
	if and := b.Op == "AND"; and || b.Op == "OR" {
		l, r := s.compileCounts(b.L, env), s.compileCounts(b.R, env)
		if l == nil || r == nil {
			return nil
		}
		return func(c []aggCount) bool {
			if l(c) != and {
				return !and // the operand that decides
			}
			return r(c)
		}
	}
	// side reports a count's call index, or -1 and an INT literal's value.
	side := func(e Expr) (int, int64, bool) {
		switch n := e.(type) {
		case *Literal:
			if n.Value.Kind() == types.KindInt {
				return -1, n.Value.Int(), true
			}
		case *FuncExpr:
			if slot, ok := env[exprString(n)]; ok {
				return slot - s.width, 0, true
			}
		}
		return 0, 0, false
	}
	li, lv, ok1 := side(b.L)
	ri, rv, ok2 := side(b.R)
	signs, ok3 := cmpSigns[b.Op]
	if !ok1 || !ok2 || !ok3 || (li < 0 && ri < 0) { // two literals are the evaluator's
		return nil
	}
	return func(c []aggCount) bool {
		x, y := lv, rv
		if li >= 0 {
			x = c[li].n
		}
		if ri >= 0 {
			y = c[ri].n
		}
		return signs>>(cmp.Compare(x, y)+1)&1 == 1
	}
}
