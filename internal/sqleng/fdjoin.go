// FD-collapsed joins: discovered exact FDs registered as plan-time
// algebraic facts.
//
// Engine.RegisterFDs records an fdset.Set (attribute positions = snapshot
// column indexes) for a base table — typically the exact cover a discovery
// run mined (discovery.Report.ExactFDs). The planner consults it in
// finalizeSteps: a composite equi-join key whose columns are all bare right
// columns collapses to a PLI probe on one lead column when the registered
// FDs prove the lead determines every other key column. The remaining key
// equalities become per-candidate dictionary-code guards, so the result is
// identical whether or not the FDs actually hold on the pinned snapshot —
// a stale registration can never produce wrong rows, only cost the memo
// extra entries. What the FDs buy is exactness and work:
//
//   - statistics: the collapsed step's class count is the lead column's
//     exact PLI class count (under the FD, the composite key has exactly
//     as many classes as the lead), replacing the capped
//     dictionary-cardinality product estimate the hash path uses — so the
//     greedy probe orderer ranks the step by an exact number;
//   - execution: no hash index is built over the full right side. Probes
//     read the lead's PLI class and guard-filter it once per distinct
//     (lead class, guard codes) combination, memoized — when the FD holds
//     on the data, each lead class is scanned at most once, so collapsed
//     class scans <= lead class count (the D9 gate), versus the hash
//     build's unconditional full-relation scan.
//
// EXPLAIN prints each collapse with the derivation that licensed it
// (fdset.Set.Derivation), one line per guarded column.
package sqleng

import (
	"fmt"
	"strings"
	"sync/atomic"

	"semandaq/internal/fdset"
)

// OpCounters profiles the executor's work. Counters accumulate across
// queries on one engine, atomically (concurrent queries on a shared engine
// each add their work); read a consistent copy via OpStats. The
// FD-collapse probe gate and the late-materialisation gate read them.
type OpCounters struct {
	// PLIProbes counts single-column PLI class lookups.
	PLIProbes int64
	// HashProbes counts hash-bucket lookups, HashBuildRows the right-side
	// rows scanned to build hash indexes.
	HashProbes    int64
	HashBuildRows int64
	// CollapsedProbes counts lookups on FD-collapsed steps;
	// CollapsedBuilds counts the memo misses among them — the lead-class
	// scans that applied the guard filters. When the registered FDs hold
	// on the snapshot, CollapsedBuilds is bounded by the lead column's
	// class count.
	CollapsedProbes int64
	CollapsedBuilds int64
	// ValuesMaterialized counts the Values fetched from dictionaries (and
	// tuple ids boxed) into the row buffer. A query whose predicates, keys
	// and aggregates all compile to codes fetches output rows x projected
	// columns and nothing else.
	ValuesMaterialized int64
	// MemoClasses counts the driver-row classes whose tails the
	// driver-signature memo recorded, MemoReplays the driver rows it served
	// from a recording instead of running the pipeline.
	MemoClasses int64
	MemoReplays int64
}

// fields lists the counters, for the whole-struct atomic operations.
func (o *OpCounters) fields() []*int64 {
	return []*int64{&o.PLIProbes, &o.HashProbes, &o.HashBuildRows,
		&o.CollapsedProbes, &o.CollapsedBuilds, &o.ValuesMaterialized, &o.MemoClasses, &o.MemoReplays}
}

// flushOps folds the execution's locally accumulated counters into the
// engine's, one atomic add per field — the hot loops count on plain ints.
func (px *planExec) flushOps() {
	local := px.ops.fields()
	for i, f := range px.p.ops.fields() {
		atomic.AddInt64(f, *local[i])
	}
}

// RegisterFDs records exact FDs for the named table, keyed by attribute
// position (snapshot column index, excluding the hidden _tid). The planner
// uses them to collapse composite join keys; see the package comment
// above. Registering nil removes the entry. Safe to call while queries
// run: the registry is copy-on-write, and because collapsed probes
// re-check every key equality per candidate, a set that is stale relative
// to the data can only cost work, never change a result.
func (e *Engine) RegisterFDs(table string, fds *fdset.Set) {
	key := strings.ToLower(table)
	e.fdmu.Lock()
	defer e.fdmu.Unlock()
	next := make(map[string]*fdset.Set, len(e.fds)+1)
	for k, v := range e.fds {
		next[k] = v
	}
	if fds == nil {
		delete(next, key)
	} else {
		next[key] = fds
	}
	e.fds = next
}

// snapshotFDs returns the current FD registry. The returned map is never
// mutated (copy-on-write), so callers may read it lock-free afterwards.
func (e *Engine) snapshotFDs() map[string]*fdset.Set {
	e.fdmu.RLock()
	defer e.fdmu.RUnlock()
	return e.fds
}

// OpStats returns a copy of the accumulated executor operation counters.
func (e *Engine) OpStats() OpCounters {
	var out OpCounters
	dst := out.fields()
	for i, f := range e.ops.fields() {
		*dst[i] = atomic.LoadInt64(f)
	}
	return out
}

// ResetOpStats zeroes the executor operation counters.
func (e *Engine) ResetOpStats() {
	for _, f := range e.ops.fields() {
		atomic.StoreInt64(f, 0)
	}
}

// collapseStep rewrites a composite-key step as an FD-collapsed PLI probe
// if the registered FDs license it: every key column a bare right column,
// and some lead key column determining all the others. Among valid leads
// the one with the most classes wins (fewest expected matches — the most
// selective probe). Requires pure keys: the collapsed path evaluates the
// left key expressions lead-first instead of in written order, which is
// unobservable only when none of them can error.
func collapseStep(step *joinStep, fds *fdset.Set) bool {
	if fds == nil || step.kind != stepHash || len(step.keys) < 2 || !step.keyPure {
		return false
	}
	snap := step.right.snap
	if fds.Arity() != snap.Schema().Arity() {
		return false // registered against a different schema shape
	}
	cols := make([]int, len(step.keys))
	for i, k := range step.keys {
		c, ok := bareScanCol(k.rsrc, step.right)
		if !ok {
			return false
		}
		cols[i] = c
	}
	best := -1
	for i, lead := range cols {
		licensed := true
		for j, other := range cols {
			if j != i && !fds.Implies([]int{lead}, other) {
				licensed = false
				break
			}
		}
		if !licensed {
			continue
		}
		if best < 0 || snap.ColClassCount(lead) > snap.ColClassCount(cols[best]) {
			best = i
		}
	}
	if best < 0 {
		return false
	}

	step.kind = stepPLI
	step.collapsed = true
	step.leadKey = best
	step.keyRCol = cols[best]
	step.classes = snap.ColClassCount(cols[best])
	step.expected = float64(step.rightLen)
	if step.classes > 0 {
		step.expected = float64(step.rightLen) / float64(step.classes)
	}

	attrs := snap.Schema().Attrs
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	for j, other := range cols {
		if j == best {
			continue
		}
		step.guardKeys = append(step.guardKeys, j)
		step.guardCols = append(step.guardCols, other)
		witness, _ := fds.Derivation([]int{cols[best]}, other)
		parts := make([]string, len(witness))
		for w, f := range witness {
			parts[w] = f.Render(names)
		}
		licence := strings.Join(parts, ", ")
		if licence == "" {
			licence = "trivial" // duplicate key column: lead == guard
		}
		step.fdLines = append(step.fdLines, fmt.Sprintf(
			"fd-collapse: lead %s guards %s via %s", names[cols[best]], names[other], licence))
	}
	return true
}

// collapsedLookup probes an FD-collapsed step for the current prefix: the
// lead column's PLI class (eq already resolved by the caller), filtered by
// dictionary-code equality on the guarded key columns. Results are
// memoized per (lead class, guard codes): when the registered FD holds on
// the snapshot, every left row probing a given lead class carries the same
// guard values, so each class is scanned at most once.
func (px *planExec) collapsedLookup(si int, eq uint32) ([]int32, error) {
	step := px.p.steps[si]
	idx := px.idx[si]
	px.ops.CollapsedProbes++

	key := appendCode(px.keyBuf[:0], int32(eq))
	for gi, ki := range step.guardKeys {
		code, err := px.keyCode(&step.keys[ki])
		if err != nil || code < 0 {
			px.keyBuf = key
			return nil, err // NULL, or a value absent from the right column
		}
		idx.guard[gi] = uint32(code)
		key = appendCode(key, code)
	}
	px.keyBuf = key

	if cands, ok := idx.memo[string(key)]; ok {
		return cands, nil
	}
	px.ops.CollapsedBuilds++
	var out []int32
	for _, r := range idx.pliCol.ClassRows(eq) {
		if err := px.stride(); err != nil {
			return nil, err
		}
		pass := true
		for gi, col := range idx.guardCols {
			if col.EqCode(int(r)) != idx.guard[gi] {
				pass = false
				break
			}
		}
		if pass {
			out = append(out, r)
		}
	}
	idx.memo[string(key)] = out
	return out, nil
}
