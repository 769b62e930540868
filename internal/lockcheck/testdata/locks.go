// Package locks holds TestLockDiscipline's cases: each `want` comment is
// the finding its line must draw, and a line without one must draw none.
package locks

import (
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
}

func (b *box) sendHeld() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while holding b.mu`
	b.mu.Unlock()
}

func (b *box) sendReleased() {
	b.mu.Lock()
	b.mu.Unlock()
	b.ch <- 1
}

func (b *box) recvHeld() int {
	b.mu.Lock()
	v := <-b.ch // want `channel receive while holding b.mu`
	b.mu.Unlock()
	return v
}

func (b *box) deferHoldsToEnd() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1 // want `channel send while holding b.mu`
}

func (b *box) readLockCounts() {
	b.rw.RLock()
	b.ch <- 1 // want `channel send while holding b.rw`
	b.rw.RUnlock()
}

func (b *box) sleepHeld() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding b.mu`
	b.mu.Unlock()
}

func (b *box) waitHeld(wg *sync.WaitGroup) {
	b.mu.Lock()
	wg.Wait() // want `wg.Wait while holding b.mu`
	b.mu.Unlock()
}

func (b *box) blockingSelect(done chan struct{}) {
	b.mu.Lock()
	select { // want `blocking select while holding b.mu`
	case <-done:
	case b.ch <- 1:
	}
	b.mu.Unlock()
}

func (b *box) nonBlockingSelect() {
	b.mu.Lock()
	select {
	case b.ch <- 1:
	default:
	}
	b.mu.Unlock()
}

// A spawned goroutine does not run under the caller's lock.
func (b *box) goroutine() {
	b.mu.Lock()
	go func() { b.ch <- 1 }()
	b.mu.Unlock()
}

// A stored closure runs later, outside the lock window.
func (b *box) storedClosure() func() {
	b.mu.Lock()
	f := func() { b.ch <- 1 }
	b.mu.Unlock()
	return f
}

// Unrelated locks do not cover each other: releasing rw leaves mu held.
func (b *box) twoLocks() {
	b.mu.Lock()
	b.rw.Lock()
	b.rw.Unlock()
	b.ch <- 1 // want `channel send while holding b.mu`
	b.mu.Unlock()
}
