package detect

import (
	"fmt"
	"runtime"

	"semandaq/internal/relstore"
)

// EngineKind identifies one of the interchangeable detection engines. All
// engines produce byte-identical reports; they differ only in
// evaluation strategy (generated SQL, factorised columnar evaluation on
// one or several workers).
type EngineKind int

// The engines, in wire/CLI order (core re-exports them). Nothing stores a
// kind's integer value.
const (
	// SQLEngine generates and runs the two SQL queries per CFD (the
	// paper's technique).
	SQLEngine EngineKind = iota
	// ParallelEngine is ColumnarEngine on Config.Workers workers; the report
	// does not depend on the count.
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
	case ParallelEngine:
		return "parallel"
	case ColumnarEngine:
		return "columnar"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ParseEngineKind maps the CLI/HTTP engine names ("sql", "parallel",
// "columnar") to an EngineKind. "native" is accepted as an alias of
// "columnar", so clients that still send it get the same report.
func ParseEngineKind(s string) (EngineKind, error) {
	if s == "native" {
		return ColumnarEngine, nil
	}
	for _, k := range EngineKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return SQLEngine, fmt.Errorf("semandaq: unknown detection engine %q (want one of %v)", s, EngineKinds())
}

// Config carries the per-request parameters an engine may consume. Engines
// ignore fields they do not need.
type Config struct {
	// Workers is the goroutine count for the parallel engine; <= 0 means
	// runtime.GOMAXPROCS.
	Workers int
	// Store is the SQL engine's store, which its Detect needs to hold the
	// data table; DetectSnapshot and DetectFactorised need none.
	Store *relstore.Store
}

// NewDetector builds the detector for an engine kind.
func NewDetector(kind EngineKind, cfg Config) (EngineDetector, error) {
	switch kind {
	case SQLEngine:
		return NewSQLDetector(cfg.Store), nil
	case ParallelEngine:
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		return ColumnarDetector{Workers: workers}, nil
	case ColumnarEngine:
		return ColumnarDetector{Workers: 1}, nil
	default:
		return nil, fmt.Errorf("semandaq: no detection engine for %v", kind)
	}
}

// EngineKinds lists the engine kinds in ascending order — the
// cache-invalidation and matrix-test iteration order.
func EngineKinds() []EngineKind {
	return []EngineKind{SQLEngine, ParallelEngine, ColumnarEngine}
}
