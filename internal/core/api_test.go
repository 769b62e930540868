package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// TestSetWorkersResetsOnZeroAndNegative pins the documented contract: any
// n <= 0 — zero included — resets the session to the GOMAXPROCS default,
// and the default flows into requests that do not override it.
func TestSetWorkersResetsOnZeroAndNegative(t *testing.T) {
	s := New()
	s.SetWorkers(6)
	if got := s.Workers(); got != 6 {
		t.Fatalf("Workers() = %d, want 6", got)
	}
	for _, n := range []int{0, -1, -99} {
		s.SetWorkers(6)
		s.SetWorkers(n)
		if got := s.Workers(); got != 0 {
			t.Errorf("SetWorkers(%d): Workers() = %d, want 0 (GOMAXPROCS default)", n, got)
		}
	}
	// The session default reaches a request's resolved options...
	s.SetWorkers(4)
	if o := s.resolve(DefaultEngine, nil); o.workers != 4 {
		t.Errorf("resolved workers = %d, want session default 4", o.workers)
	}
	// ...and WithWorkers overrides per request, with <= 0 meaning the
	// GOMAXPROCS default again.
	if o := s.resolve(DefaultEngine, []Option{WithWorkers(2)}); o.workers != 2 {
		t.Errorf("WithWorkers(2) resolved to %d", o.workers)
	}
	if o := s.resolve(DefaultEngine, []Option{WithWorkers(0)}); o.workers != 0 {
		t.Errorf("WithWorkers(0) resolved to %+v", o)
	}
	if o := s.resolve(DefaultEngine, []Option{WithWorkers(-3)}); o.workers != 0 {
		t.Errorf("WithWorkers(-3) resolved to %d", o.workers)
	}
}

// datasetSession loads a generated dirty workload whose standard CFD set
// has several constraints, so scoping is observable.
func datasetSession(t *testing.T) (*Semandaq, []string) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Tuples: 3000, Seed: 17, NoiseRate: 0.08})
	s := New()
	s.RegisterTable(ds.Dirty)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range s.CFDs("customer") {
		ids = append(ids, c.ID)
	}
	return s, ids
}

// filterReport reduces a full report to the named CFDs, recomputing vio(t)
// under the paper's rule — the reference the scoped engines must match.
func filterReport(rep *detect.Report, ids ...string) *detect.Report {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	out := &detect.Report{
		Table:      rep.Table,
		TupleCount: rep.TupleCount,
		Vio:        map[relstore.TupleID]int{},
		PerCFD:     map[string]*detect.CFDStats{},
	}
	for id, st := range rep.PerCFD {
		if want[id] {
			c := *st
			out.PerCFD[id] = &c
		}
	}
	for _, v := range rep.Violations {
		if want[v.CFDID] {
			out.Violations = append(out.Violations, v)
		}
	}
	for _, g := range rep.Groups {
		if want[g.CFDID] {
			out.Groups = append(out.Groups, g)
		}
	}
	type key struct {
		id relstore.TupleID
		c  string
		k  detect.Kind
	}
	seen := map[key]bool{}
	for _, v := range out.Violations {
		kk := key{v.TupleID, v.CFDID, v.Kind}
		if seen[kk] {
			continue
		}
		seen[kk] = true
		if v.Kind == detect.SingleTuple {
			out.Vio[v.TupleID]++
		} else {
			out.Vio[v.TupleID] += v.Partners
		}
	}
	return out
}

// TestWithCFDsScopingMatrix asserts, for every engine, that detection
// scoped to a subset of the registered CFDs equals filtering the full
// report down to those IDs.
func TestWithCFDsScopingMatrix(t *testing.T) {
	s, ids := datasetSession(t)
	if len(ids) < 3 {
		t.Fatalf("want >= 3 standard CFDs, got %v", ids)
	}
	ctx := context.Background()
	scopes := [][]string{
		{ids[0]},
		{ids[1], ids[2]},
		ids, // scoping to everything must equal the full report
	}
	for _, kind := range []DetectorKind{SQLDetection, ParallelDetection, ColumnarDetection} {
		full, err := s.Detect(ctx, "customer", WithEngine(kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, scope := range scopes {
			scoped, err := s.Detect(ctx, "customer", WithEngine(kind), WithCFDs(scope...))
			if err != nil {
				t.Fatalf("%v scope %v: %v", kind, scope, err)
			}
			want := filterReport(full, scope...)
			if !reflect.DeepEqual(scoped.Violations, want.Violations) {
				t.Errorf("%v scope %v: violations differ (%d vs %d)",
					kind, scope, len(scoped.Violations), len(want.Violations))
			}
			if !reflect.DeepEqual(scoped.Vio, want.Vio) {
				t.Errorf("%v scope %v: vio(t) differs", kind, scope)
			}
			if !reflect.DeepEqual(scoped.PerCFD, want.PerCFD) {
				t.Errorf("%v scope %v: per-CFD stats differ", kind, scope)
			}
			if len(scoped.Groups) != len(want.Groups) {
				t.Errorf("%v scope %v: groups %d vs %d", kind, scope, len(scoped.Groups), len(want.Groups))
			}
		}
	}
}

func TestWithCFDsUnknownID(t *testing.T) {
	s, _ := datasetSession(t)
	_, err := s.Detect(context.Background(), "customer", WithCFDs("nope"))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v, want unknown-CFD error naming the id", err)
	}
}

// TestWithLimit pins the truncation contract: the violation records are
// capped, the statistics still describe the full scan, and the cache keeps
// the untruncated report.
func TestWithLimit(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	full, err := s.Detect(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Violations) < 10 {
		t.Fatalf("workload too clean: %d violations", len(full.Violations))
	}
	capped, err := s.Detect(ctx, "customer", WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Violations) != 5 {
		t.Errorf("limited violations = %d, want 5", len(capped.Violations))
	}
	if !reflect.DeepEqual(capped.Vio, full.Vio) || len(capped.PerCFD) != len(full.PerCFD) {
		t.Error("limit must not touch the full-scan statistics")
	}
	again, err := s.Detect(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Violations) != len(full.Violations) {
		t.Errorf("cache returned a truncated report: %d vs %d", len(again.Violations), len(full.Violations))
	}
	// Streamed limit: exactly k violations.
	n := 0
	for _, err := range s.DetectStream(ctx, "customer", WithLimit(7)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 7 {
		t.Errorf("streamed %d violations under WithLimit(7)", n)
	}
}

// TestDetectStreamParity asserts the facade stream yields the blocking
// report's violations, in the report's order, for every engine.
func TestDetectStreamParity(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	for _, kind := range []DetectorKind{ParallelDetection, ColumnarDetection, SQLDetection} {
		want, err := s.Detect(ctx, "customer", WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		var got []detect.Violation
		for v, err := range s.DetectStream(ctx, "customer", WithEngine(kind)) {
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			got = append(got, v)
		}
		if !reflect.DeepEqual(got, want.Violations) {
			t.Errorf("%v: stream (%d) != blocking report (%d)", kind, len(got), len(want.Violations))
		}
	}
}

// TestDetectPreCancelled pins ctx.Err() propagation through the facade for
// every engine.
func TestDetectPreCancelled(t *testing.T) {
	s, _ := datasetSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []DetectorKind{SQLDetection, ParallelDetection, ColumnarDetection} {
		if _, err := s.Detect(ctx, "customer", WithEngine(kind)); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", kind, err)
		}
	}
	sawErr := false
	for _, err := range s.DetectStream(ctx, "customer") {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("stream err = %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("pre-cancelled stream ended without a terminal error")
	}
}

// TestAuditScoped asserts the audit honors WithCFDs: the violation pie
// only names the scoped constraints.
func TestAuditScoped(t *testing.T) {
	s, ids := datasetSession(t)
	a, err := s.Audit(context.Background(), "customer", WithCFDs(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range a.Pie {
		if slice.CFDID != ids[0] {
			t.Errorf("pie names %s outside the scope", slice.CFDID)
		}
	}
}
