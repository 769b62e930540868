package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/types"
)

// stewardBatch builds one round of the benchmark's steward-cycle update
// batch (benchmark/gen.go, stewardRound) against snap: typos street typos in
// UK zip groups of three or more, flips countries flipped against their
// calling code, and moves inserts plus as many deletes — every update in a
// (CNT, ZIP) group of its own. salt keeps two rounds' values apart.
func stewardBatch(t *testing.T, snap *relstore.Snapshot, typos, flips, moves, salt int) []monitor.Update {
	t.Helper()
	sc := snap.Schema()
	cnt, zip, str, name := sc.MustPos("CNT"), sc.MustPos("ZIP"), sc.MustPos("STR"), sc.MustPos("NAME")
	groupOf := func(row relstore.Tuple) string { return string(row[zip].AppendGroupKey(row[cnt].AppendGroupKey(nil))) }
	size := map[string]int{}
	for _, row := range snap.Rows() {
		size[groupOf(row)]++
	}
	taken := map[string]bool{}
	at := salt * 977 % snap.Len()
	pick := func(uk bool, minSize int) int {
		for tries := 0; tries < snap.Len(); tries++ {
			i := at
			at = (at + 1) % snap.Len()
			row := snap.Row(i)
			g := groupOf(row)
			if taken[g] || size[g] < minSize || (uk && row[cnt].Str() != "UK") {
				continue
			}
			taken[g] = true
			return i
		}
		t.Fatal("steward batch: table has too few free groups")
		return -1
	}
	var batch []monitor.Update
	for i := 0; i < typos; i++ {
		r := pick(true, 3)
		s := []byte(snap.Row(r)[str].Str())
		s[0], s[1] = s[1], s[0]
		batch = append(batch, monitor.Update{Op: monitor.OpSet, ID: snap.IDs()[r], Attr: "STR",
			Value: types.NewString(fmt.Sprintf("%s~%d", s, salt))})
	}
	for i := 0; i < flips; i++ {
		r := pick(false, 0)
		flip := "UK"
		if snap.Row(r)[cnt].Str() == "UK" {
			flip = "US"
		}
		batch = append(batch, monitor.Update{Op: monitor.OpSet, ID: snap.IDs()[r], Attr: "CNT", Value: types.NewString(flip)})
	}
	for i := 0; i < moves; i++ {
		row := snap.Row(pick(false, 0)).Clone()
		row[name] = types.NewString(fmt.Sprintf("moved-%d-%d", salt, i))
		batch = append(batch,
			monitor.Update{Op: monitor.OpInsert, Row: row},
			monitor.Update{Op: monitor.OpDelete, ID: snap.IDs()[pick(false, 4)]})
	}
	return batch
}

// deepCopy rebuilds snap's table through the row API alone — fresh rows,
// same ids (a deleted id is inserted and deleted again), nothing shared with
// the live table: the reference a forked repair is compared against.
func deepCopy(snap *relstore.Snapshot) *relstore.Table {
	tab := relstore.NewTable(snap.Schema())
	for i, id := range snap.IDs() {
		for got := tab.MustInsert(snap.Row(i)); got != id; got = tab.MustInsert(snap.Row(i)) {
			tab.Delete(got)
		}
	}
	return tab
}

// TestStewardRoundBuildsNothing: a steady-state round of the paper's Fig. 1
// loop — a monitored update batch, detect, audit, explore, a candidate
// repair on a working copy, its apply, re-discovery — interns the rows the
// batch inserted and nothing else: no batch snapshot or column build, no
// compaction, and no one-column partition but the seven discovery builds for
// its own run. It allocates no more than it did when rows were stored
// beside the columns, and the repair computed on the copy-on-write fork is
// the one a deep copy of the table yields.
//
// The typos are salted, so every round strands ~95 dead codes in STR (~1 000
// live values), and deadLimit compacts the column every second or third
// round; the first two rounds take the loop through its first builds and
// compaction, the third is measured.
func TestStewardRoundBuildsNothing(t *testing.T) {
	const typos, flips, moves = 96, 32, 8
	ctx := context.Background()
	ds := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5})
	arity := ds.Clean.Schema().Arity()
	s := New()
	s.RegisterTable(ds.Clean)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Monitor(ctx, "customer"); err != nil {
		t.Fatal(err)
	}

	// round runs the loop once and returns the repair with the snapshot it
	// was computed from, and the allocations the loop made (the batch is
	// built before counting).
	round := func(salt int) (*repair.Result, *relstore.Snapshot, uint64) {
		t.Helper()
		batch := stewardBatch(t, ds.Clean.Snapshot(), typos, flips, moves, salt)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := s.ApplyUpdates("customer", batch); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Detect(ctx, "customer")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Vio) < typos+flips {
			t.Fatalf("round %d: %d dirty tuples after %d injected errors", salt, len(rep.Vio), typos+flips)
		}
		if _, err := s.Audit(ctx, "customer"); err != nil {
			t.Fatal(err)
		}
		ex, err := s.Explore(ctx, "customer")
		if err != nil {
			t.Fatal(err)
		}
		ex.CFDs()
		before := ds.Clean.Snapshot()
		res, err := s.Repair(ctx, "customer")
		if err != nil {
			t.Fatal(err)
		}
		if applied, skipped, err := s.ApplyRepair("customer", res.Modifications); err != nil || applied != len(res.Modifications) || len(skipped) != 0 {
			t.Fatalf("round %d: applied %d of %d modifications, %d skipped, err %v", salt, applied, len(res.Modifications), len(skipped), err)
		}
		if _, err := s.Discover(ctx, "customer", WithMaxLHS(2)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return res, before, m1.Mallocs - m0.Mallocs
	}

	round(1) // the first rounds build what every later one patches
	round(2)
	start := relstore.ReadBuildOps()
	res, before, allocs := round(3)
	ops := relstore.ReadBuildOps().Sub(start)
	// With the one-column partitions built by discovery's run instead of
	// patched by each fold, this round allocates 5 865-5 871 times (6 923-
	// 6 934 when the folds patched them; 7 136 with the tracker's per-tuple
	// maps; 16 606 when every update built its keys and a delta; 71 670
	// when rows were stored beside the columns): the ceiling is that plus
	// 5 %.
	t.Logf("round allocated %d times", allocs)
	if allocs > 6164 {
		t.Errorf("round allocated %d times, more than 6 164", allocs)
	}
	if ops.BatchColumns != 0 || ops.RebuiltColumns != 0 || ops.BatchSnapshots != 0 {
		t.Errorf("steady-state round built from scratch: %+v", ops)
	}
	// Discovery's level 1 builds each column's partition for its run; no
	// other reader builds one, and the folds patch none.
	if ops.PLIBuilds != int64(arity) || ops.PLIPatches != 0 {
		t.Errorf("PLIBuilds = %d, PLIPatches = %d; want %d (discovery's level 1) and 0", ops.PLIBuilds, ops.PLIPatches, arity)
	}
	if limit := int64(moves*arity + 128); ops.InternedCells > limit {
		t.Errorf("InternedCells = %d, want <= %d (the inserted rows' cells plus the repair's)", ops.InternedCells, limit)
	}
	if len(res.Modifications) < typos+flips || !res.Converged {
		t.Errorf("repair made %d modifications for %d injected errors, converged=%v", len(res.Modifications), typos+flips, res.Converged)
	}

	want, err := repair.NewRepairer().Repair(ctx, deepCopy(before), datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Modifications, want.Modifications) || res.Cost != want.Cost || res.Passes != want.Passes {
		t.Errorf("repair on the fork: %d modifications, cost %v, %d passes; on a deep copy: %d, %v, %d",
			len(res.Modifications), res.Cost, res.Passes, len(want.Modifications), want.Cost, want.Passes)
	}
}

// TestStewardBatchAllocs gates the monitor's write path at 1.15
// allocations per update, over the two batches of a steward round: the
// updates (street typos, country flips, moves) and the reviewed repair's
// apply. The tracker allocates a key only for a group or RHS class it has
// not held, looks every other key up in its scratch buffer, builds no
// per-update delta, and keeps a tuple's state in dense slices, not maps.
func TestStewardBatchAllocs(t *testing.T) {
	const typos, flips, moves = 96, 32, 8
	ctx := context.Background()
	ds := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5})
	s := New()
	s.RegisterTable(ds.Clean)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	m, err := s.Monitor(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	apply := func(batch []monitor.Update) uint64 {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := m.Apply(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	var perUpdate float64
	for salt := 1; salt <= 3; salt++ {
		batch := stewardBatch(t, ds.Clean.Snapshot(), typos, flips, moves, salt)
		n := apply(batch)
		res, err := s.Repair(ctx, "customer")
		if err != nil {
			t.Fatal(err)
		}
		fix := make([]monitor.Update, len(res.Modifications))
		for i, mod := range res.Modifications {
			fix[i] = monitor.Update{Op: monitor.OpSet, ID: mod.TupleID, Attr: mod.Attr, Value: mod.New}
		}
		nfix := apply(fix)
		t.Logf("round %d: %d updates, %d allocations; %d repairs, %d allocations", salt, len(batch), n, len(fix), nfix)
		perUpdate = float64(n+nfix) / float64(len(batch)+len(fix))
	}
	// Measured 1.06 (the updates 1.8, the repairs 0.2); 1.8 when the
	// tracker's per-tuple state was maps; the tracker that keyed every
	// update anew allocated 19 times per SetCell.
	if perUpdate > 1.15 {
		t.Errorf("a steward round's batches allocate %.2f times per update, want <= 1.15", perUpdate)
	}
}

// monitoredSteward returns a session whose monitored 2 000-row table has
// taken one steward batch, and the table.
func monitoredSteward(t *testing.T, cleansed bool) (*Semandaq, *relstore.Table) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 5})
	s := New()
	s.RegisterTable(ds.Clean)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Monitor(context.Background(), "customer", WithCleansed(cleansed)); err != nil {
		t.Fatal(err)
	}
	if !cleansed {
		if _, err := s.ApplyUpdates("customer", stewardBatch(t, ds.Clean.Snapshot(), 24, 8, 2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	return s, ds.Clean
}

// TestApplyRepairIsOneBatch: under a detect-mode monitor, applying a
// reviewed repair as one update batch leaves the cells, the applied and
// skipped modifications and the tracker's report exactly as applying it one
// modification at a time does — one modification gone stale included.
func TestApplyRepairIsOneBatch(t *testing.T) {
	batched, tab := monitoredSteward(t, false)
	single, ref := monitoredSteward(t, false)
	res, err := batched.Repair(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	stale := res.Modifications[len(res.Modifications)/3]
	for _, s := range []*Semandaq{batched, single} {
		if _, err := s.SetCell("customer", stale.TupleID, stale.Attr, types.NewString("edited under review")); err != nil {
			t.Fatal(err)
		}
	}
	applied, skipped, err := batched.ApplyRepair("customer", res.Modifications)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: one monitor batch per modification, each checked
	// against the live cell.
	m, _ := single.ActiveMonitor("customer")
	refApplied, refSkipped := 0, []repair.Modification(nil)
	for _, mod := range res.Modifications {
		if row, ok := ref.Get(mod.TupleID); !ok || !row[ref.Schema().MustPos(mod.Attr)].Equal(mod.Old) {
			refSkipped = append(refSkipped, mod)
			continue
		}
		if _, err := m.Apply([]monitor.Update{{Op: monitor.OpSet, ID: mod.TupleID, Attr: mod.Attr, Value: mod.New}}); err != nil {
			t.Fatal(err)
		}
		refApplied++
	}
	if applied != refApplied || !reflect.DeepEqual(skipped, refSkipped) || len(skipped) == 0 {
		t.Fatalf("applied %d, skipped %v; one at a time: %d, %v", applied, skipped, refApplied, refSkipped)
	}
	if g, w := fmt.Sprintf("%#v", tab.Snapshot().Rows()), fmt.Sprintf("%#v", ref.Snapshot().Rows()); g != w {
		t.Fatal("the batched apply left other cells than the one-at-a-time apply")
	}
	bm, _ := batched.ActiveMonitor("customer")
	got, ok := bm.FactorReport(tab.Snapshot())
	want, wok := m.FactorReport(ref.Snapshot())
	if !ok || !wok || !reflect.DeepEqual(got.Explode(), want.Explode()) {
		t.Fatal("the tracker's report after the batched apply differs from the one-at-a-time apply's")
	}
}

// TestApplyRepairCleansed: under a cleansed monitor, incremental repair runs
// once the whole reviewed repair has landed, so a converged repair applies
// every modification and leaves the table clean.
func TestApplyRepairCleansed(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 5, NoiseRate: 0.05})
	s := New()
	s.RegisterTable(ds.Dirty)
	if err := s.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Repair(context.Background(), "customer")
	if err != nil || !res.Converged {
		t.Fatalf("repair: converged %v, err %v", res != nil && res.Converged, err)
	}
	m, err := s.Monitor(context.Background(), "customer", WithCleansed(true))
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped, err := s.ApplyRepair("customer", res.Modifications)
	if err != nil || applied != len(res.Modifications) || len(skipped) != 0 {
		t.Fatalf("applied %d of %d modifications, %d skipped, err %v", applied, len(res.Modifications), len(skipped), err)
	}
	if m.DirtyCount() != 0 {
		t.Errorf("%d tuples dirty after applying a converged repair", m.DirtyCount())
	}
}

// TestStewardRepairAllocs gates the facade's repair of a steward batch at
// O(1) allocations per modification: a few hundred for the working copy and
// the second pass's detection (the first reads the cached report) and a few
// per modification, since groups are resolved on codes and only what a
// Modification carries is decoded. The row-reading repairer made 2 225
// allocations here.
func TestStewardRepairAllocs(t *testing.T) {
	s, _ := monitoredSteward(t, false)
	ctx := context.Background()
	if _, err := s.Detect(ctx, "customer"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Repair(ctx, "customer")
	if err != nil || len(res.Modifications) < 32 {
		t.Fatalf("repair: %d modifications, err %v", len(res.Modifications), err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Repair(ctx, "customer"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("repair of %d modifications: %.0f allocations", len(res.Modifications), allocs)
	if limit := 400 + 4*float64(len(res.Modifications)); allocs > limit {
		t.Errorf("repair of %d modifications allocates %.0f times, more than %.0f", len(res.Modifications), allocs, limit)
	}
}
