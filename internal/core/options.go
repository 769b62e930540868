package core

// Option configures one request (Detect, DetectStream, Audit, Repair,
// Monitor). Options are applied in order over the session's defaults, so a
// later option wins over an earlier duplicate.
type Option func(*requestOptions)

// requestOptions is the resolved per-request configuration.
type requestOptions struct {
	kind DetectorKind
	// workers overrides the session's ParallelDetection worker count; 0
	// still means GOMAXPROCS (servers rely on that for per-request
	// overrides).
	workers int
	// cfdIDs scopes detection to the named registered CFDs; empty means
	// all of them.
	cfdIDs []string
	// limit caps the number of violation records returned/streamed;
	// 0 means unlimited.
	limit int
	// cleansed selects the monitor's incremental-repair mode.
	cleansed bool
	// Discovery knobs (Discover only; non-positive means the discovery
	// package's default — explicit positive values always win, see
	// discovery.Options).
	minSupport    int
	maxLHS        int
	minConfidence float64
	maxPatterns   int
}

// WithEngine selects the detection engine for this request. The default is
// DefaultEngine; every engine produces an identical report.
func WithEngine(kind DetectorKind) Option {
	return func(o *requestOptions) { o.kind = kind }
}

// WithWorkers overrides the worker count for the parallel engine for this
// request only (the shared session is not mutated). n <= 0 means
// runtime.GOMAXPROCS. Other engines ignore it.
func WithWorkers(n int) Option {
	return func(o *requestOptions) {
		if n < 0 {
			n = 0
		}
		o.workers = n
	}
}

// WithCFDs scopes the request to the registered CFDs with the given IDs.
// Detection over a scoped set equals filtering the full report down to
// those constraints. Unknown IDs are an error at request time.
func WithCFDs(ids ...string) Option {
	return func(o *requestOptions) {
		o.cfdIDs = append(o.cfdIDs, ids...)
	}
}

// WithLimit caps the violation records a request returns: Detect truncates
// the report's Violations slice to k (the per-tuple counts and per-CFD
// statistics still describe the full scan), and DetectStream stops after
// yielding k violations. k <= 0 means unlimited.
func WithLimit(k int) Option {
	return func(o *requestOptions) {
		if k < 0 {
			k = 0
		}
		o.limit = k
	}
}

// WithCleansed marks the monitored table as already cleaned: the monitor
// repairs incoming errors incrementally instead of only detecting them.
// Only Monitor consumes it.
func WithCleansed(on bool) Option {
	return func(o *requestOptions) { o.cleansed = on }
}

// WithMinSupport sets the minimum number of tuples a discovered pattern's
// condition must cover. Explicit positive values always win — including 1,
// which makes every value frequent; n <= 0 selects the discovery default
// max(2, N/100). Only Discover consumes it.
func WithMinSupport(n int) Option {
	return func(o *requestOptions) { o.minSupport = n }
}

// WithMaxLHS bounds the size of a discovered embedded FD's LHS (the
// lattice depth); any positive depth is allowed. n <= 0 selects the
// discovery default 2. Only Discover consumes it.
func WithMaxLHS(n int) Option {
	return func(o *requestOptions) { o.maxLHS = n }
}

// WithMinConfidence sets the minimum confidence for discovered embedded-FD
// checks; values below 1 admit approximate CFDs (the g3 kept fraction).
// c <= 0 selects the discovery default 1.0 (exact dependencies only).
// Only Discover consumes it.
func WithMinConfidence(c float64) Option {
	return func(o *requestOptions) { o.minConfidence = c }
}

// WithMaxPatterns bounds how many condition patterns one discovered
// embedded FD may accumulate. n <= 0 selects the discovery default 8.
// Only Discover consumes it.
func WithMaxPatterns(n int) Option {
	return func(o *requestOptions) { o.maxPatterns = n }
}

// resolve folds the options over the session defaults.
func (s *Semandaq) resolve(defKind DetectorKind, opts []Option) requestOptions {
	o := requestOptions{kind: defKind, workers: s.Workers()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
