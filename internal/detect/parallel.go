package detect

import (
	"context"
	"runtime"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
)

// ParallelDetector is the multi-worker configuration of ColumnarDetector:
// the factorised core's per-CFD passes (constant scan, partition grouping)
// run on Workers goroutines and merge in CFD order, so the report is
// byte-identical to NativeDetector's whatever the count. Workers <= 0 means
// runtime.GOMAXPROCS(0).
type ParallelDetector struct {
	Workers int
}

// Detect implements Detector.
func (d ParallelDetector) Detect(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Report, error) {
	return d.DetectSnapshot(ctx, tab.Snapshot(), cfds)
}

// columnar resolves the worker default.
func (d ParallelDetector) columnar() ColumnarDetector {
	if d.Workers <= 0 {
		return ColumnarDetector{Workers: runtime.GOMAXPROCS(0)}
	}
	return ColumnarDetector{Workers: d.Workers}
}

// DetectSnapshot implements SnapshotDetector over one pinned table version.
func (d ParallelDetector) DetectSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*Report, error) {
	return d.columnar().DetectSnapshot(ctx, snap, cfds)
}

// DetectFactorised implements FactorDetector.
func (d ParallelDetector) DetectFactorised(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	return d.columnar().DetectFactorised(ctx, snap, cfds)
}

// DetectStream streams the table's current snapshot.
func (d ParallelDetector) DetectStream(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) ViolationSeq {
	return d.DetectStreamSnapshot(ctx, tab.Snapshot(), cfds)
}

// DetectStreamSnapshot implements SnapshotStreamer over one pinned version.
func (d ParallelDetector) DetectStreamSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) ViolationSeq {
	return d.columnar().DetectStreamSnapshot(ctx, snap, cfds)
}
