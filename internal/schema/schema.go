// Package schema describes relation schemas: ordered attribute lists with
// optional type annotations. Schemas are shared by the store, the SQL
// engine and the CFD layer (CFDs are defined over a schema's attributes).
package schema

import (
	"fmt"
	"strings"

	"semandaq/internal/types"
)

// Attribute is one column of a relation.
type Attribute struct {
	Name string
	// Type is the declared kind; KindNull means untyped (any).
	Type types.Kind
}

// Relation is a named, ordered attribute list.
type Relation struct {
	Name  string
	Attrs []Attribute

	index map[string]int // attribute name, lowercased and as written -> position
}

// New builds a relation schema from attribute names, all untyped.
func New(name string, attrs ...string) *Relation {
	r := &Relation{Name: name}
	for _, a := range attrs {
		r.Attrs = append(r.Attrs, Attribute{Name: a})
	}
	r.reindex()
	return r
}

// NewTyped builds a relation schema from explicit attributes.
func NewTyped(name string, attrs ...Attribute) *Relation {
	r := &Relation{Name: name, Attrs: attrs}
	r.reindex()
	return r
}

func (r *Relation) reindex() {
	r.index = make(map[string]int, 2*len(r.Attrs))
	for i, a := range r.Attrs {
		r.index[strings.ToLower(a.Name)] = i
	}
	// Each name as written too: an exact-case Pos allocates no lowered copy.
	for _, a := range r.Attrs {
		r.index[a.Name] = r.index[strings.ToLower(a.Name)]
	}
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Pos returns the position of the named attribute (case-insensitive) and
// whether it exists.
func (r *Relation) Pos(attr string) (int, bool) {
	if i, ok := r.index[attr]; ok {
		return i, true
	}
	i, ok := r.index[strings.ToLower(attr)]
	return i, ok
}

// MustPos returns the position of attr or panics; used where the attribute
// set was validated up front.
func (r *Relation) MustPos(attr string) int {
	i, ok := r.Pos(attr)
	if !ok {
		panic(fmt.Sprintf("schema: relation %s has no attribute %q", r.Name, attr))
	}
	return i
}

// Has reports whether the relation has the named attribute.
func (r *Relation) Has(attr string) bool {
	_, ok := r.Pos(attr)
	return ok
}

// AttrNames returns the attribute names in order.
func (r *Relation) AttrNames() []string {
	names := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		names[i] = a.Name
	}
	return names
}

// Positions resolves a list of attribute names to positions. It returns an
// error naming the first unknown attribute.
func (r *Relation) Positions(attrs []string) ([]int, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.Pos(a)
		if !ok {
			return nil, fmt.Errorf("schema: relation %s has no attribute %q", r.Name, a)
		}
		pos[i] = p
	}
	return pos, nil
}

// Clone returns a deep copy, optionally renamed.
func (r *Relation) Clone(name string) *Relation {
	if name == "" {
		name = r.Name
	}
	attrs := make([]Attribute, len(r.Attrs))
	copy(attrs, r.Attrs)
	return NewTyped(name, attrs...)
}

// String renders the schema as R(A, B, C).
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('(')
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		if a.Type != types.KindNull {
			b.WriteByte(' ')
			b.WriteString(a.Type.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}
