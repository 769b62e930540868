package detect

import (
	"fmt"
	"sort"
	"sync"

	"semandaq/internal/relstore"
)

// EngineKind identifies one of the interchangeable detection engines. All
// registered engines produce byte-identical reports; they differ only in
// evaluation strategy (generated SQL, row scan, factorised columnar
// evaluation on one or several workers).
type EngineKind int

// The built-in engines. The constants double as the wire/CLI order, so
// their values are part of the public surface (core re-exports them).
const (
	// SQLEngine generates and runs the two SQL queries per CFD (the
	// paper's technique).
	SQLEngine EngineKind = iota
	// NativeEngine is the single-threaded in-memory row scan.
	NativeEngine
	// ParallelEngine is the columnar evaluation on several workers.
	ParallelEngine
	// ColumnarEngine is the single-worker factorised evaluation over the
	// columnar snapshot.
	ColumnarEngine
)

// String names the engine as the CLI/HTTP surface spells it.
func (k EngineKind) String() string {
	switch k {
	case SQLEngine:
		return "sql"
	case NativeEngine:
		return "native"
	case ParallelEngine:
		return "parallel"
	case ColumnarEngine:
		return "columnar"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ParseEngineKind maps the CLI/HTTP engine names ("sql", "native",
// "parallel", "columnar") to an EngineKind.
func ParseEngineKind(s string) (EngineKind, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	for k := range registry {
		if k.String() == s {
			return k, nil
		}
	}
	return SQLEngine, fmt.Errorf("semandaq: unknown detection engine %q (want one of %v)", s, kindsLocked())
}

// Config carries the per-request parameters an engine factory may consume.
// Engines ignore fields they do not need.
type Config struct {
	// Workers is the goroutine count for the parallel engine; <= 0 means
	// runtime.GOMAXPROCS.
	Workers int
	// Store must contain the data table for the SQL engine (the generated
	// queries join against tableau tables materialized in it).
	Store *relstore.Store
}

// Factory builds a detector for one request.
type Factory func(cfg Config) Detector

var (
	regMu    sync.RWMutex
	registry = map[EngineKind]Factory{}
)

// Register installs (or replaces) an engine factory. The built-in engines
// register themselves; tests and extensions may add more kinds.
func Register(kind EngineKind, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[kind] = f
}

// NewDetector builds the detector for an engine kind from the registry.
func NewDetector(kind EngineKind, cfg Config) (Detector, error) {
	regMu.RLock()
	f, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("semandaq: no detection engine registered for %v", kind)
	}
	return f(cfg), nil
}

// EngineKinds lists the registered engine kinds in ascending order — the
// cache-invalidation and matrix-test iteration order.
func EngineKinds() []EngineKind {
	regMu.RLock()
	defer regMu.RUnlock()
	return kindsLocked()
}

func kindsLocked() []EngineKind {
	out := make([]EngineKind, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func init() {
	Register(SQLEngine, func(cfg Config) Detector { return NewSQLDetector(cfg.Store) })
	Register(NativeEngine, func(cfg Config) Detector { return NativeDetector{} })
	Register(ParallelEngine, func(cfg Config) Detector { return ParallelDetector{Workers: cfg.Workers} })
	Register(ColumnarEngine, func(cfg Config) Detector { return ColumnarDetector{Workers: 1} })
}
