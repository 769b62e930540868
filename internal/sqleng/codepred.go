// Code compilation. The pipeline carries a cursor — one snapshot row index
// per scan — instead of a row of Values, and every WHERE comparison, GROUP
// BY key and COUNT operand is decided at the cursor by integer compares on
// the columns' Equal-class codes. Two columns (two dictionaries) meet
// through a translation table built once per plan from EqCodeOf: one
// dictionary lookup per distinct value, none per row. Code equality is
// Value.Equal because two stored values share an Equal-class code iff they
// are Equal: the codes are the classes Value.Key() induces
// (relstore/columnar.go, TestCompareIntFloatExactly).
//
// WHERE has no NOT, so a comparison with NULL, unknown under SQL's
// three-valued logic, can be read as false: AND and OR are monotone, and a
// condition that is true with some operands unknown stays true whatever
// they are, false included. A code predicate is therefore a plain bool.
// HAVING compares COUNTs, which are never NULL.
package sqleng

import (
	"cmp"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// codeFn is a code-compiled predicate over the cursor.
type codeFn func(cur []int32) bool

// Markers beside a column's Equal-class codes.
const (
	codeAbsent int32 = -1 // the value equals no value of the column
	codeNull   int32 = -2 // SQL NULL: no comparison with it holds
)

// codeTerm is a code-level operand: a column of one scan.
type codeTerm struct {
	src  *ColumnRef
	scan int
	col  *relstore.Column
	null int32 // the column's NULL code, -3 when it stores none
}

// termOf resolves a column reference to a code-level operand.
func (p *selectPlan) termOf(ref *ColumnRef) (*codeTerm, error) {
	pos, err := p.cat.resolve(ref)
	if err != nil {
		return nil, err
	}
	s := p.scanOf(pos)
	col := p.scans[s].cnr.Col(pos - p.scans[s].start - 1)
	t := &codeTerm{src: ref, scan: s, col: col, null: -3}
	if nc, has := col.NullCode(); has {
		t.null = int32(nc)
	}
	return t, nil
}

// own returns the term's Equal-class code at the cursor, codeNull for NULL.
func (t *codeTerm) own(cur []int32) int32 {
	if c := int32(t.col.EqCode(int(cur[t.scan]))); c != t.null {
		return c
	}
	return codeNull
}

// codeOf maps an arbitrary value into the term's Equal-class codes.
func (t *codeTerm) codeOf(v types.Value) int32 {
	if v.IsNull() {
		return codeNull
	}
	if c, ok := t.col.EqCodeOf(v); ok {
		return int32(c)
	}
	return codeAbsent
}

// xlatTab translates term a's Equal-class codes into term b's. It is built
// on first use, so a plan that never evaluates the comparison never pays
// for it.
type xlatTab struct {
	label string // "a→b", for the plan and the per-plan sharing
	a, b  *codeTerm
	tab   []int32
}

func (x *xlatTab) get() []int32 {
	if x.tab == nil {
		a, b := x.a.col, x.b
		x.tab = make([]int32, a.CodeSpace())
		for c := range x.tab {
			if a.EqOf(uint32(c)) == uint32(c) { // own reads canonical codes only
				x.tab[c] = b.codeOf(a.Value(uint32(c)))
			}
		}
	}
	return x.tab
}

// xlat returns the plan's translation table from a to b, one per ordered
// pair of operands.
func (p *selectPlan) xlat(a, b *codeTerm) *xlatTab {
	label := exprString(a.src) + "→" + exprString(b.src)
	for _, x := range p.xlats {
		if x.label == label {
			return x
		}
	}
	x := &xlatTab{label: label, a: a, b: b}
	p.xlats = append(p.xlats, x)
	return x
}

// compileCode compiles a WHERE condition to a code predicate. It fails only
// on a column that does not resolve.
func (p *selectPlan) compileCode(e Expr) (codeFn, error) {
	n := e.(*BinaryExpr)
	if n.Op == "AND" || n.Op == "OR" {
		l, err := p.compileCode(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileCode(n.R)
		if err != nil {
			return nil, err
		}
		if n.Op == "OR" {
			return func(cur []int32) bool { return l(cur) || r(cur) }, nil
		}
		return func(cur []int32) bool { return l(cur) && r(cur) }, nil
	}
	// A comparison: = or <> between a column and a column or literal.
	negate := n.Op == "<>"
	lref, lok := n.L.(*ColumnRef)
	rref, rok := n.R.(*ColumnRef)
	if !lok {
		lref, rref, rok, n = rref, nil, false, &BinaryExpr{L: n.R, R: n.L}
	}
	a, err := p.termOf(lref)
	if err != nil {
		return nil, err
	}
	if !rok {
		x := a.codeOf(n.R.(*Literal).Value)
		if x == codeNull {
			return func([]int32) bool { return false }, nil
		}
		return func(cur []int32) bool {
			c := a.own(cur)
			return c != codeNull && (c == x) != negate
		}, nil
	}
	b, err := p.termOf(rref)
	if err != nil {
		return nil, err
	}
	if a.col.Card() > b.col.Card() {
		a, b = b, a // translate the smaller dictionary
	}
	x := p.xlat(a, b)
	return func(cur []int32) bool {
		ac, bc := a.own(cur), b.own(cur)
		return ac != codeNull && bc != codeNull && (x.get()[ac] == bc) != negate
	}, nil
}

// countFn is a HAVING decided on a group's counts.
type countFn func(counts []aggCount) bool

// compileCounts compiles HAVING: =, <>, <, <=, >, >= between COUNTs and INT
// literals under AND/OR. A COUNT is an INT and never NULL, so the logic is
// two-valued and a compare is an int64 one.
func compileCounts(e Expr, slot map[string]int) countFn {
	b := e.(*BinaryExpr)
	if and := b.Op == "AND"; and || b.Op == "OR" {
		l, r := compileCounts(b.L, slot), compileCounts(b.R, slot)
		return func(c []aggCount) bool {
			if l(c) != and {
				return !and // the operand that decides
			}
			return r(c)
		}
	}
	// side reports a count's call index, or -1 and an INT literal's value.
	side := func(e Expr) (int, int64) {
		if n, ok := e.(*Literal); ok {
			return -1, n.Value.Int()
		}
		return slot[exprString(e)], 0
	}
	li, lv := side(b.L)
	ri, rv := side(b.R)
	signs := cmpSigns[b.Op]
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
