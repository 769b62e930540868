//go:build lockcheck

package lockcheck

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
)

// Mutex is a sync.Mutex of lock class C whose acquisitions are checked.
type Mutex[C any] struct{ mu sync.Mutex }

func (m *Mutex[C]) Lock()   { acquire[C](); m.mu.Lock() }
func (m *Mutex[C]) Unlock() { m.mu.Unlock(); release[C]() }

// RWMutex is a sync.RWMutex of lock class C whose acquisitions are checked.
type RWMutex[C any] struct{ mu sync.RWMutex }

func (m *RWMutex[C]) Lock()    { acquire[C](); m.mu.Lock() }
func (m *RWMutex[C]) Unlock()  { m.mu.Unlock(); release[C]() }
func (m *RWMutex[C]) RLock()   { acquire[C](); m.mu.RLock() }
func (m *RWMutex[C]) RUnlock() { m.mu.RUnlock(); release[C]() }

// held is a lock a goroutine holds: its class and the pc of its Lock call.
type held struct {
	class string
	pc    uintptr
}

// The process's order graph, and the locks each goroutine holds, under mu.
var (
	mu    sync.Mutex
	order = graph{}
	holds = map[uint64][]held{}
)

func acquire[C any]() {
	class, id, pc := reflect.TypeFor[C]().String(), goid(), [1]uintptr{}
	runtime.Callers(3, pc[:])
	mu.Lock()
	defer mu.Unlock()
	for _, h := range holds[id] {
		if err := order.add(h.class, class, witness{h.pc, pc[0]}); err != nil {
			panic(err)
		}
	}
	holds[id] = append(holds[id], held{class, pc[0]})
}

func release[C any]() {
	class, id := reflect.TypeFor[C]().String(), goid()
	mu.Lock()
	defer mu.Unlock()
	hs := holds[id]
	if i := slices.IndexFunc(hs, func(h held) bool { return h.class == class }); i >= 0 {
		hs = slices.Delete(hs, i, i+1)
	}
	if holds[id] = hs; len(hs) == 0 {
		delete(holds, id)
	}
}

// goid reads the running goroutine's id from its stack's "goroutine N [".
func goid() uint64 {
	var buf [32]byte
	id, _ := strconv.ParseUint(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64)
	return id
}
