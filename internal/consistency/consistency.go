// Package consistency implements the static analysis of CFD sets from the
// TODS paper, surfaced by Semandaq's constraint engine: before CFDs are used
// for cleaning, the system tells the user whether the set "makes sense".
//
// Unlike classical FDs, a set of CFDs can be unsatisfiable — e.g.
// [A=_] -> [B=b1] together with [A=_] -> [B=b2]. Satisfiability checking is
// NP-complete in general (when attributes range over finite domains) and
// polynomial when all attributes have infinite domains. This package
// implements both regimes with one procedure: a chase-style constant
// propagation that is complete for infinite domains, extended with
// backtracking over the attributes the caller declares finite.
package consistency

import (
	"fmt"
	"sort"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// Domains declares finite attribute domains (attribute name → the values
// the attribute may take). Attributes absent from the map are treated as
// having infinite domains: a "fresh" value distinct from every pattern
// constant always exists for them.
type Domains map[string][]types.Value

// normalized lowercases keys.
func (d Domains) normalized() map[string][]types.Value {
	out := make(map[string][]types.Value, len(d))
	for k, vs := range d {
		out[strings.ToLower(k)] = vs
	}
	return out
}

// Conflict explains why a CFD set is unsatisfiable: two rules force
// different constants onto the same attribute under a common assignment.
type Conflict struct {
	Attr   string
	Value1 types.Value
	Value2 types.Value
	CFD1   string // ID of the rule that first forced Value1
	CFD2   string // ID of the rule whose RHS clashed with it
}

// String renders the conflict for user display.
func (c Conflict) String() string {
	return fmt.Sprintf("attribute %s forced to both %v (by %s) and %v (by %s)",
		c.Attr, c.Value1, c.CFD1, c.Value2, c.CFD2)
}

// Report is the result of a satisfiability check.
type Report struct {
	Satisfiable bool
	// Witness maps attribute names to values of a single-tuple witness
	// instance, when satisfiable. Infinite-domain attributes not forced by
	// any rule carry a synthesized fresh value.
	Witness map[string]types.Value
	// Conflict explains unsatisfiability, when not satisfiable.
	Conflict *Conflict
}

// rule is a normalized constant-RHS pattern: "if the tuple matches the LHS
// cells, attribute rhsAttr must equal rhsVal". Variable (wildcard-RHS)
// patterns are irrelevant to single-tuple satisfiability: TODS shows a CFD
// set is satisfiable iff some single tuple satisfies it, and one tuple can
// never raise a multi-tuple violation.
type rule struct {
	id      string
	lhs     []ruleCell
	rhsAttr string // lowercased
	rhsVal  types.Value
}

type ruleCell struct {
	attr string // lowercased
	wild bool
	val  types.Value
}

// Check decides satisfiability of the CFD set over the given schema.
// Every CFD must validate against sc. domains may be nil.
func Check(sc *schema.Relation, cfds []*cfd.CFD, domains Domains) (*Report, error) {
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
	}
	dom := domains.normalized()
	for attr, vs := range dom {
		if len(vs) == 0 {
			return nil, fmt.Errorf("consistency: attribute %q has an empty domain", attr)
		}
		if !sc.Has(attr) {
			return nil, fmt.Errorf("consistency: domain for unknown attribute %q", attr)
		}
	}

	rules := collectRules(cfds)

	// The assignment under construction: lowercased attr → value; absence
	// means "unconstrained". For infinite-domain attributes, absence means
	// a fresh value that dodges every pattern constant.
	assign := map[string]assigned{}
	conflict, ok := chase(rules, assign, dom)
	if !ok {
		return &Report{Satisfiable: false, Conflict: conflict}, nil
	}

	// Branch over finite-domain attributes that occur in some rule LHS and
	// are still unassigned; the chase alone is complete otherwise.
	finiteVars := finiteLHSVars(rules, assign, dom)
	conflict, ok = search(rules, assign, dom, finiteVars)
	if !ok {
		return &Report{Satisfiable: false, Conflict: conflict}, nil
	}
	return &Report{Satisfiable: true, Witness: witness(sc, assign, rules, dom)}, nil
}

// assigned is one attribute's state in the assignment.
type assigned struct {
	val types.Value
	by  string // rule/choice that set it
}

// collectRules normalizes the CFDs and extracts constant-RHS rules.
func collectRules(cfds []*cfd.CFD) []rule {
	var rules []rule
	for _, c := range cfds {
		for _, nc := range c.Normalize() {
			for i, pt := range nc.Tableau {
				if pt.RHS[0].Wildcard {
					continue
				}
				r := rule{
					id:      fmt.Sprintf("%s#%d", nc.ID, i),
					rhsAttr: strings.ToLower(nc.RHS[0]),
					rhsVal:  pt.RHS[0].Const,
				}
				for k, p := range pt.LHS {
					r.lhs = append(r.lhs, ruleCell{
						attr: strings.ToLower(nc.LHS[k]),
						wild: p.Wildcard,
						val:  p.Const,
					})
				}
				rules = append(rules, r)
			}
		}
	}
	return rules
}

// chase propagates forced constants to a fixpoint. A rule fires when every
// LHS cell *necessarily* matches: wildcards always match; a constant cell
// matches only if the attribute is already assigned that constant, or the
// attribute's finite domain has shrunk to exactly that constant. (An
// unassigned infinite-domain attribute can always dodge a constant, so it
// never forces a match.) Returns ok=false with an explanation on clash.
func chase(rules []rule, assign map[string]assigned, dom map[string][]types.Value) (*Conflict, bool) {
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if !necessarilyMatches(r, assign, dom) {
				continue
			}
			cur, ok := assign[r.rhsAttr]
			if !ok {
				// Check the forced value is allowed by a finite domain.
				if vs, fin := dom[r.rhsAttr]; fin && !domainHas(vs, r.rhsVal) {
					return &Conflict{
						Attr:   r.rhsAttr,
						Value1: r.rhsVal,
						Value2: types.Null,
						CFD1:   r.id,
						CFD2:   "finite domain",
					}, false
				}
				assign[r.rhsAttr] = assigned{val: r.rhsVal, by: r.id}
				changed = true
				continue
			}
			if !cur.val.Equal(r.rhsVal) {
				return &Conflict{
					Attr:   r.rhsAttr,
					Value1: cur.val,
					Value2: r.rhsVal,
					CFD1:   cur.by,
					CFD2:   r.id,
				}, false
			}
		}
	}
	return nil, true
}

func necessarilyMatches(r rule, assign map[string]assigned, dom map[string][]types.Value) bool {
	for _, c := range r.lhs {
		if c.wild {
			continue
		}
		a, ok := assign[c.attr]
		if ok {
			if !a.val.Equal(c.val) {
				return false
			}
			continue
		}
		// Unassigned: only a singleton finite domain equal to the constant
		// forces a match.
		vs, fin := dom[c.attr]
		if !fin || len(vs) != 1 || !vs[0].Equal(c.val) {
			return false
		}
	}
	return true
}

func domainHas(vs []types.Value, v types.Value) bool {
	for _, x := range vs {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

// finiteLHSVars lists unassigned finite-domain attributes occurring on some
// rule LHS as a constant cell — the only branch points that matter.
func finiteLHSVars(rules []rule, assign map[string]assigned, dom map[string][]types.Value) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rules {
		for _, c := range r.lhs {
			if c.wild {
				continue
			}
			if _, ok := assign[c.attr]; ok {
				continue
			}
			if _, fin := dom[c.attr]; fin && !seen[c.attr] {
				seen[c.attr] = true
				out = append(out, c.attr)
			}
		}
	}
	sort.Strings(out)
	return out
}

// search branches over the finite-domain variables, chasing after each
// choice. Satisfiable iff some branch completes without clash.
func search(rules []rule, assign map[string]assigned, dom map[string][]types.Value, vars []string) (*Conflict, bool) {
	if len(vars) == 0 {
		return nil, true
	}
	attr := vars[0]
	if _, done := assign[attr]; done {
		return search(rules, assign, dom, vars[1:])
	}
	var lastConflict *Conflict
	for _, v := range dom[attr] {
		trial := cloneAssign(assign)
		trial[attr] = assigned{val: v, by: "choice(" + attr + ")"}
		conf, ok := chase(rules, trial, dom)
		if !ok {
			lastConflict = conf
			continue
		}
		conf, ok = search(rules, trial, dom, vars[1:])
		if !ok {
			lastConflict = conf
			continue
		}
		// Commit the successful branch.
		for k, a := range trial {
			assign[k] = a
		}
		return nil, true
	}
	return lastConflict, false
}

func cloneAssign(a map[string]assigned) map[string]assigned {
	out := make(map[string]assigned, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// witness builds a concrete single-tuple witness: forced values as chased,
// finite attributes getting any non-conflicting domain value, infinite
// attributes a fresh string distinct from every constant in the rules.
func witness(sc *schema.Relation, assign map[string]assigned, rules []rule, dom map[string][]types.Value) map[string]types.Value {
	used := map[string]bool{}
	for _, r := range rules {
		used[r.rhsVal.Key()] = true
		for _, c := range r.lhs {
			if !c.wild {
				used[c.val.Key()] = true
			}
		}
	}
	out := make(map[string]types.Value, sc.Arity())
	fresh := 0
	for _, a := range sc.Attrs {
		low := strings.ToLower(a.Name)
		if v, ok := assign[low]; ok {
			out[a.Name] = v.val
			continue
		}
		if vs, fin := dom[low]; fin {
			out[a.Name] = vs[0]
			continue
		}
		for {
			cand := types.NewString(fmt.Sprintf("fresh%d", fresh))
			fresh++
			if !used[cand.Key()] {
				out[a.Name] = cand
				break
			}
		}
	}
	return out
}
