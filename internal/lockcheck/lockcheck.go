// Package lockcheck names lock classes: a field declared lockcheck.Mutex[C]
// or RWMutex[C] is a lock of class C. Without the lockcheck build tag the
// two are sync's own types; with it, the first acquisition that closes a
// cycle in the order classes are taken in panics (docs/INVARIANTS.md).
package lockcheck

import (
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// witness is where an edge was first seen: the pcs of the held lock's
// Lock call and of the acquiring one.
type witness struct{ held, acq uintptr }

// graph is the lock-order graph: g[a][b] witnesses b taken while a held.
type graph map[string]map[string]witness

// add records the edge from → to seen at w, unless it would close a cycle:
// then it returns an error naming the cycle's edges, the new one first.
func (g graph) add(from, to string, w witness) error {
	if _, ok := g[from][to]; ok || from == to {
		return nil
	}
	if path := g.path(to, from); path != nil {
		cycle := append([]string{from}, path...)
		msg := "lockcheck: lock-order cycle " + strings.Join(cycle, " -> ")
		for i := 0; i+1 < len(cycle); i++ {
			e := w
			if i > 0 {
				e = g[cycle[i]][cycle[i+1]]
			}
			msg += fmt.Sprintf("\n  %s acquired at %s\n    while %s held, taken at %s", cycle[i+1], site(e.acq), cycle[i], site(e.held))
		}
		return fmt.Errorf("%s", msg)
	}
	if g[from] == nil {
		g[from] = map[string]witness{}
	}
	g[from][to] = w
	return nil
}

// path returns a shortest path from a to b, both included, or nil. Ties go
// to the first class by name, so a cycle reads the same on every run.
func (g graph) path(a, b string) []string {
	paths := map[string][]string{a: {a}}
	for queue := []string{a}; len(queue) > 0 && paths[b] == nil; queue = queue[1:] {
		for _, next := range slices.Sorted(maps.Keys(g[queue[0]])) {
			if paths[next] == nil {
				paths[next] = append(slices.Clip(paths[queue[0]]), next)
				queue = append(queue, next)
			}
		}
	}
	return paths[b]
}

// site renders the call at pc as "function (file:line)".
func site(pc uintptr) string {
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	return fmt.Sprintf("%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
}
