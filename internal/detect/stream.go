package detect

import (
	"context"
	"iter"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
)

// ViolationSeq is a stream of violations: the iterator yields each
// violation as the engine finds it, or one terminal non-nil error (bad
// CFDs, or ctx cancelled mid-scan). The set of yielded violations over a
// full, uncancelled iteration equals the blocking Report's Violations —
// only the order differs: single-tuple violations first, then groups.
type ViolationSeq = iter.Seq2[Violation, error]

// DetectStreamSnapshot streams the violations of exactly the given table
// version, so the caller can surface the version alongside them (the HTTP
// streaming endpoint stamps its terminal line with it). It is the
// factorised core with the consumer as its sink. The constant scans run
// first and yield their single-tuple violations inline — on a large table
// the first violation reaches the consumer long before the pass completes
// — then each CFD's factor groups yield their members. The stream runs on the
// consumer's goroutine (Workers does not apply) and never materializes a
// Report; a consumer that stops iterating simply ends the scan.
func (d ColumnarDetector) DetectStreamSnapshot(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD) ViolationSeq {
	return func(yield func(Violation, error) bool) {
		snap, cps, _, err := bindCFDs(rsnap, cfds)
		if err != nil {
			yield(Violation{}, err)
			return
		}
		ids := snap.IDs()
		// emit forwards one violation; a done ctx (noticed here per
		// violation, in the scans per stride) becomes the terminal error.
		emit := func(v Violation, err error) bool {
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				yield(Violation{}, err)
				return false
			}
			return yield(v, nil)
		}
		for i := range cps {
			for v, err := range constScan(ctx, &cps[i], ids) {
				if !emit(v, err) {
					return
				}
			}
		}
		for i := range cps {
			groups, err := factorGroups(ctx, &cps[i], ids)
			if err != nil {
				yield(Violation{}, err)
				return
			}
			for _, g := range groups {
				for m := range g.Rows {
					if !emit(g.violationAt(m, g.RHSKeyAt(m)), nil) {
						return
					}
				}
			}
		}
	}
}
