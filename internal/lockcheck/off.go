//go:build !lockcheck

package lockcheck

import "sync"

// Mutex is a sync.Mutex of lock class C.
type Mutex[C any] = sync.Mutex

// RWMutex is a sync.RWMutex of lock class C.
type RWMutex[C any] = sync.RWMutex
