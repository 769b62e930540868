package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

type tfact struct {
	N     int
	Words []string
}

func (*tfact) AFact() {}

// TestFactRoundTrip pins the store semantics: gob round-trip isolation (an
// importer never shares memory with the exporter), per-(analyzer, key,
// type) addressing, and sorted enumeration.
func TestFactRoundTrip(t *testing.T) {
	s := NewFactStore()
	k1 := ObjKey{Pkg: "p", Recv: "T", Name: "M"}
	k2 := ObjKey{Pkg: "p", Name: "f"}
	orig := &tfact{N: 7, Words: []string{"a", "b"}}
	if err := s.export("an", k1, orig); err != nil {
		t.Fatal(err)
	}
	if err := s.export("an", k2, &tfact{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Mutating the exported value must not leak into later imports.
	orig.Words[0] = "mutated"

	var got tfact
	if !s.importInto("an", k1, &got) {
		t.Fatalf("no fact at %s", k1)
	}
	if got.N != 7 || got.Words[0] != "a" {
		t.Errorf("round-trip got %+v, want N=7 Words[0]=a", got)
	}
	if s.importInto("other", k1, &got) {
		t.Error("fact visible under a different analyzer name")
	}
	if s.importInto("an", ObjKey{Pkg: "p", Name: "absent"}, &got) {
		t.Error("import of absent key reported ok")
	}

	// Package facts (empty Name) enumerate by package path; object facts do not.
	if err := s.export("an", ObjKey{Pkg: "q"}, &tfact{N: 2}); err != nil {
		t.Fatal(err)
	}
	if paths := s.packageFacts("an", &tfact{}); len(paths) != 1 || paths[0] != "q" {
		t.Errorf("packageFacts = %v, want [q]", paths)
	}
}

type unserializable struct {
	Ch chan int
}

func (*unserializable) AFact() {}

func TestFactMustSerialize(t *testing.T) {
	s := NewFactStore()
	err := s.export("an", ObjKey{Pkg: "p", Name: "f"}, &unserializable{Ch: make(chan int)})
	if err == nil || !strings.Contains(err.Error(), "not gob-serializable") {
		t.Errorf("export of chan-bearing fact: err = %v, want not-serializable error", err)
	}
}

const directivesSrc = `package d

//semandaq:vet-ignore usedcheck reason one
func a() {}

//semandaq:vet-ignore usedcheck this one suppresses nothing
func b() {}

//semandaq:vet-ignore skippedcheck not judged when the analyzer did not run
func c() {}

//semandaq:vet-ignore nosuchcheck typo, always stale
func d1() {}

//semandaq:vet-ignore all only judged on a full run
func e() {}
`

// TestDirectivesStale pins the staleness rules: used directives are never
// stale, unused ones are stale when their analyzer ran, directives for
// analyzers skipped by -run are not judged, unknown names always are, and
// "all" is judged only on a full run.
func TestDirectivesStale(t *testing.T) {
	RegisterName("usedcheck", "skippedcheck")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDirectives()
	ds.AddFiles(fset, []*ast.File{f})

	// The directive above func a suppresses a finding on the decl line.
	aLine := fset.Position(f.Decls[0].Pos()).Line
	if !ds.suppresses(token.Position{Filename: "d.go", Line: aLine}, "usedcheck") {
		t.Fatal("directive above func a did not suppress")
	}
	if ds.suppresses(token.Position{Filename: "d.go", Line: aLine}, "othercheck") {
		t.Fatal("directive suppressed a different analyzer")
	}

	stale := ds.Stale(map[string]bool{"usedcheck": true}, false)
	got := map[string]bool{}
	for _, d := range stale {
		if d.Analyzer != SuppressionCheck {
			t.Errorf("stale diagnostic attributed to %q, want %q", d.Analyzer, SuppressionCheck)
		}
		got[d.Message] = true
	}
	wantSub := []string{
		"stale //semandaq:vet-ignore usedcheck",
		"stale //semandaq:vet-ignore nosuchcheck",
	}
	for _, sub := range wantSub {
		found := false
		for m := range got {
			if strings.Contains(m, sub) {
				found = true
			}
		}
		if !found {
			t.Errorf("no stale finding containing %q in %v", sub, got)
		}
	}
	if len(stale) != 2 {
		t.Errorf("partial run: %d stale findings, want 2 (skippedcheck and all must not be judged): %v", len(stale), got)
	}
	for m := range got {
		if strings.Contains(m, "nosuchcheck") && !strings.Contains(m, "no analyzer by that name") {
			t.Errorf("unknown-name staleness should mention the name is unknown: %q", m)
		}
	}

	// Full run: "all" becomes judgeable too.
	stale = ds.Stale(map[string]bool{"usedcheck": true, "skippedcheck": true}, true)
	if len(stale) != 4 {
		msgs := make([]string, 0, len(stale))
		for _, d := range stale {
			msgs = append(msgs, d.Message)
		}
		t.Errorf("full run: %d stale findings, want 4: %v", len(stale), msgs)
	}
}
