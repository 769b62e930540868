//go:build lockcheck

package lockcheck

import (
	"fmt"
	"strings"
	"testing"
)

type classA struct{}
type classB struct{}

// TestCheckedMutexes drives the tagged wrappers: A then B records the edge,
// a nested read lock of one class adds none, and B then A panics naming
// both acquisitions before it takes A.
func TestCheckedMutexes(t *testing.T) {
	var a Mutex[classA]
	var b RWMutex[classB]
	a.Lock()
	b.RLock()
	b.RLock()
	b.RUnlock()
	b.RUnlock()
	a.Unlock()
	if _, ok := order["lockcheck.classA"]["lockcheck.classB"]; !ok || len(order["lockcheck.classB"]) != 0 {
		t.Fatalf("order after A, then B twice under it: %v", order)
	}
	got := func() (err any) {
		defer func() { err = recover() }()
		b.Lock()
		defer b.Unlock()
		a.Lock()
		return nil
	}()
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "cycle lockcheck.classB -> lockcheck.classA -> lockcheck.classB") ||
		strings.Count(msg, "on_test.go:") != 4 {
		t.Fatalf("B then A: want a cycle naming four Lock calls in this file, got %v", got)
	}
	if !a.mu.TryLock() || len(holds) != 0 {
		t.Fatalf("after the panic: A taken or a lock still listed as held (%v)", holds)
	}
}
