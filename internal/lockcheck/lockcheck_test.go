package lockcheck

import (
	"runtime"
	"strings"
	"testing"
)

// here returns the pc of its call, a witness as the tagged build takes one.
func here() uintptr {
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	return pc[0]
}

// TestLockOrder holds the order graph the lockcheck build records into: a
// cycle is refused naming both edges' witnesses, a DAG is not, and taking a
// class already held is no edge.
func TestLockOrder(t *testing.T) {
	t.Run("two-class cycle", func(t *testing.T) {
		g := graph{}
		heldA := here()
		acqB := here()
		if err := g.add("A", "B", witness{heldA, acqB}); err != nil {
			t.Fatal(err)
		}
		heldB := here()
		acqA := here()
		err := g.add("B", "A", witness{heldB, acqA})
		if err == nil {
			t.Fatal("B -> A after A -> B: no cycle reported")
		}
		for _, want := range []string{"cycle B -> A -> B", site(heldA), site(acqB), site(heldB), site(acqA)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("cycle error lacks %q:\n%s", want, err)
			}
		}
		if !strings.Contains(site(acqA), "lockcheck_test.go:") {
			t.Errorf("a witness renders as %q, want its file and line", site(acqA))
		}
		if _, ok := g["B"]["A"]; ok {
			t.Error("the edge closing the cycle was recorded")
		}
	})

	t.Run("DAG", func(t *testing.T) {
		g := graph{}
		for _, e := range [][2]string{
			{"server", "core"}, {"core", "gate"}, {"gate", "tracker"},
			{"core", "tracker"}, {"tracker", "table"}, {"gate", "table"},
			{"server", "table"}, {"table", "interner"}, {"store", "interner"},
		} {
			if err := g.add(e[0], e[1], witness{}); err != nil {
				t.Fatalf("%s -> %s: %v", e[0], e[1], err)
			}
		}
		if err := g.add("interner", "server", witness{}); err == nil ||
			!strings.Contains(err.Error(), "cycle interner -> server -> table -> interner\n") {
			t.Fatalf("a longer cycle is refused, named by its shortest path; got %v", err)
		}
	})

	t.Run("nested read locks of one class", func(t *testing.T) {
		g := graph{}
		if err := g.add("table", "table", witness{here(), here()}); err != nil {
			t.Fatal(err)
		}
		if len(g) != 0 {
			t.Fatalf("a class taken under itself made an edge: %v", g)
		}
	})
}
