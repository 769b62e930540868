// Facts: the interprocedural layer of the framework. An analyzer exports
// typed facts about package-level objects (functions, methods, types) while
// analyzing the package that declares them; analyzers running later — on the
// same package or on any package that imports it — import those facts and
// reason across the call boundary. The driver loads packages in import-DAG
// order (loader.Load), so by the time a package is analyzed every fact about
// its dependencies is already in the store.
//
// Facts are serialized through encoding/gob on export and decoded on import,
// mirroring x/tools' gob-based fact files: the round-trip both proves the
// fact type is serializable (a prerequisite for ever caching facts on disk)
// and guarantees importers cannot share mutable state with the exporter.
//
// Object identity: the loader type-checks each package from source but
// resolves its imports from compiled export data, so the *types.Object for
// relstore.(*Table).Insert seen from package core is NOT the same object the
// relstore pass saw. Facts are therefore keyed by ObjKey — (package path,
// receiver type name, object name) — which is stable across the two
// type-check universes for the package-level objects facts are allowed on.
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"sort"
)

// Fact is a typed, serializable statement an analyzer makes about a
// package-level object or a whole package. Implementations must be
// gob-encodable (exported fields) and listed in the owning Analyzer's
// FactTypes so the driver can register them.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// ObjKey names a package-level object stably across type-check universes:
// the same function seen from source and from export data yields the same
// key.
type ObjKey struct {
	Pkg  string // package import path
	Recv string // receiver type name for methods, "" otherwise
	Name string // object name
}

// String renders the key the way diagnostics name functions:
// pkg.Name or pkg.(Recv).Name.
func (k ObjKey) String() string {
	if k.Recv != "" {
		return fmt.Sprintf("%s.(%s).%s", k.Pkg, k.Recv, k.Name)
	}
	return k.Pkg + "." + k.Name
}

// KeyOf derives the fact key for obj. It supports package-level functions,
// methods (keyed by their receiver's named type), and package-level type
// names; other objects (locals, fields, imported package names) have no
// stable cross-package identity and return ok=false.
func KeyOf(obj types.Object) (ObjKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return ObjKey{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		k := ObjKey{Pkg: o.Pkg().Path(), Name: o.Name()}
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return ObjKey{}, false
		}
		if recv := sig.Recv(); recv != nil {
			n, ok := Deref(recv.Type()).(*types.Named)
			if !ok || n.Obj() == nil {
				return ObjKey{}, false
			}
			k.Recv = n.Obj().Name()
		}
		return k, true
	case *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return ObjKey{}, false
		}
		return ObjKey{Pkg: o.Pkg().Path(), Name: o.Name()}, true
	}
	return ObjKey{}, false
}

// factKey addresses one fact: at most one fact of each concrete type may be
// attached per (analyzer, object).
type factKey struct {
	analyzer string
	obj      ObjKey // Name=="" and Recv=="" ⇒ package fact about Pkg
	typ      string
}

// FactStore is the driver-owned module-wide fact database shared by every
// pass of a run. It is not safe for concurrent use; the driver analyzes
// packages sequentially in import order.
type FactStore struct {
	facts map[factKey][]byte
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey][]byte{}}
}

func factTypeName(fact Fact) string { return fmt.Sprintf("%T", fact) }

func (s *FactStore) export(analyzer string, obj ObjKey, fact Fact) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return fmt.Errorf("fact %s on %s is not gob-serializable: %v", factTypeName(fact), obj, err)
	}
	s.facts[factKey{analyzer, obj, factTypeName(fact)}] = buf.Bytes()
	return nil
}

func (s *FactStore) importInto(analyzer string, obj ObjKey, fact Fact) bool {
	enc, ok := s.facts[factKey{analyzer, obj, factTypeName(fact)}]
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(fact); err != nil {
		// An undecodable fact is a bug in the fact type, not in the target
		// code; fail loudly.
		panic(fmt.Sprintf("analysis: decoding fact %s on %s: %v", factTypeName(fact), obj, err))
	}
	return true
}

// packageFacts returns the package paths the analyzer attached a fact of
// fact's type to, sorted.
func (s *FactStore) packageFacts(analyzer string, fact Fact) []string {
	typ := factTypeName(fact)
	var paths []string
	for k := range s.facts {
		if k.analyzer == analyzer && k.typ == typ && k.obj.Name == "" {
			paths = append(paths, k.obj.Pkg)
		}
	}
	sort.Strings(paths)
	return paths
}

// RegisterFactTypes registers an analyzer's fact types (and, transitively,
// its requirements') with gob. The driver calls this once per run.
func RegisterFactTypes(analyzers ...*Analyzer) {
	seen := map[string]bool{}
	var reg func(a *Analyzer)
	reg = func(a *Analyzer) {
		if seen[a.Name] {
			return
		}
		seen[a.Name] = true
		for _, r := range a.Requires {
			reg(r)
		}
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
	for _, a := range analyzers {
		reg(a)
	}
}
