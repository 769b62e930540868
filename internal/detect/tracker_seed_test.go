package detect

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// seedCFDs read every column of seedSchema as LHS and as RHS, with
// constant and variable patterns merged into one CFD and numeric pattern
// constants that match across kinds.
const seedCFDs = `
r: [A=_, B=_] -> [C=_]
r: [A=1, B=_] -> [C=a]
r: [A=_] -> [D=_]
r: [B=0] -> [D=b]
r: [C=_] -> [A=_]
`

var seedSchema = schema.New("r", "A", "B", "C", "D")

// seedPool mixes the values whose Equal-classes span kinds or payloads —
// INT 1 and FLOAT 1.0, INT 0 and ±0.0, NaNs — with NULL, strings and the
// pair float64 rounds together (INT 2^53+1, FLOAT 2^53) but Equal keeps
// apart.
var seedPool = []types.Value{
	types.NewInt(1), types.NewFloat(1), types.NewInt(0), types.NewFloat(0),
	types.NewFloat(math.Copysign(0, -1)), types.Null, types.NewString("a"),
	types.NewString("b"), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53),
	types.NewFloat(math.NaN()), types.NewFloat(1.5),
}

func seedRow(rng *rand.Rand) relstore.Tuple {
	row := make(relstore.Tuple, seedSchema.Arity())
	for j := range row {
		row[j] = seedPool[rng.Intn(len(seedPool))]
	}
	return row
}

// insertedTwin builds a table holding snap's rows under snap's ids through
// a tracker seeded empty: every row is indexed by Insert, never by a seed.
// An id snap lacks is inserted and deleted again.
func insertedTwin(t *testing.T, snap *relstore.Snapshot, cfds []*cfd.CFD) (*relstore.Table, *Tracker) {
	t.Helper()
	tab := relstore.NewTable(snap.Schema())
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range snap.IDs() {
		for {
			got, err := tr.Insert(snap.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if got == id {
				break
			}
			if err := tr.Delete(got); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab, tr
}

// cfdIndex is one CFD's index by tuple id and key, free of slot numbers.
type cfdIndex struct {
	Single  []relstore.TupleID
	Groups  map[string][]relstore.TupleID // members, ascending
	Classes map[string]int32              // member counts
}

// trackerIndex lists tr's index by id and key, after checking its
// internal consistency: every member's class is in its group and records
// its place there, class counts sum to group sizes, group and class maps
// address live entries, and the dirty counts are what the index implies.
func trackerIndex(t *testing.T, tr *Tracker) []cfdIndex {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	refs := make([]int32, len(tr.dirtyRef))
	out := make([]cfdIndex, len(tr.state))
	for i, cs := range tr.state {
		ix := cfdIndex{Groups: map[string][]relstore.TupleID{}, Classes: map[string]int32{}}
		for s, hit := range cs.single {
			if hit {
				ix.Single = append(ix.Single, tr.idOf(s))
				refs[s]++
			}
		}
		for key, ci := range cs.classes {
			c := cs.classAt.items[ci]
			if c.key != key || c.n == 0 || cs.groupAt.items[c.group].classes == 0 {
				t.Fatalf("CFD %d: class %q at %d is %+v", i, key, ci, c)
			}
			ix.Classes[key] = c.n
		}
		for key, gi := range cs.groups {
			g := &cs.groupAt.items[gi]
			if g.key != key || len(g.members) == 0 {
				t.Fatalf("CFD %d: group %q at %d is %+v", i, key, gi, g)
			}
			counts := map[int32]int32{}
			var ids []relstore.TupleID
			for k, s := range g.members {
				m := cs.member[s]
				if m.at != int32(k) || m.class < 0 || cs.classAt.items[m.class].group != gi {
					t.Fatalf("CFD %d: group %q member %d at %d records %+v", i, key, s, k, m)
				}
				counts[m.class]++
				ids = append(ids, tr.idOf(int(s)))
				if g.violating() {
					refs[s]++
				}
			}
			for ci, n := range counts {
				if cs.classAt.items[ci].n != n {
					t.Fatalf("CFD %d: class %q counts %d of its %d members", i, cs.classAt.items[ci].key, cs.classAt.items[ci].n, n)
				}
			}
			if int(g.classes) != len(counts) {
				t.Fatalf("CFD %d: group %q has %d classes, records %d", i, key, len(counts), g.classes)
			}
			slices.Sort(ids)
			ix.Groups[key] = ids
		}
		out[i] = ix
	}
	dirty := 0
	for s, n := range refs {
		if n != tr.dirtyRef[s] {
			t.Fatalf("slot %d (id %d): dirty count %d, the index implies %d", s, tr.idOf(s), tr.dirtyRef[s], n)
		}
		if n > 0 {
			dirty++
		}
	}
	if dirty != tr.dirty {
		t.Fatalf("dirty = %d, the index implies %d", tr.dirty, dirty)
	}
	return out
}

// unversioned returns the report exploded with its version cleared: a twin
// table holds the same rows at another version.
func unversioned(fr *FactorReport) *Report {
	rep := fr.Explode()
	rep.Version = 0
	return rep
}

// assertSeedEqualsInserts checks that a tracker seeded from tab's snapshot
// holds the index a tracker inserting every row builds — key for key — and
// serves the same vio(t), dirty count and report, which is the batch
// core's and the definition's.
func assertSeedEqualsInserts(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD) {
	t.Helper()
	snap := tab.Snapshot()
	seeded, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	twinTab, twin := insertedTwin(t, snap, cfds)
	if got, want := trackerIndex(t, seeded), trackerIndex(t, twin); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded index differs from the inserted one\nseeded:   %+v\ninserted: %+v", got, want)
	}
	if got, want := seeded.VioMap(), twin.VioMap(); !maps.Equal(got, want) || seeded.DirtyCount() != twin.DirtyCount() {
		t.Fatalf("vio(t): seeded %v (dirty %d), inserted %v (dirty %d)", got, seeded.DirtyCount(), want, twin.DirtyCount())
	}
	fr, ok := seeded.FactorReport(snap)
	twinFR, twinOK := twin.FactorReport(twinTab.Snapshot())
	if !ok || !twinOK {
		t.Fatalf("a tracker refused its own snapshot: seeded %v, inserted %v", ok, twinOK)
	}
	if got, want := unversioned(fr), unversioned(twinFR); !reflect.DeepEqual(got, want) {
		t.Fatalf("reports differ\nseeded:   %+v\ninserted: %+v", got, want)
	}
	batch, err := DetectFactorised(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fr.Explode(), batch.Explode(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded report differs from the batch core's\nseeded: %+v\nbatch:  %+v", got, want)
	}
	checkDefinition(t, "seeded tracker", snap, cfds, fr.Explode())
}

// TestTrackerSeedEqualsInserts: the seed reads Equal-class codes and never
// decodes a row, so its index must be the one the insert path builds from
// values — on a table of values Equal across kinds and payloads, on
// patched columns that carry dead codes, and after a compaction renumbered
// a column.
func TestTrackerSeedEqualsInserts(t *testing.T) {
	cfds, err := cfd.ParseSet(seedCFDs)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := relstore.NewTable(seedSchema)
		for range 60 {
			tab.MustInsert(seedRow(rng))
		}
		t.Run(fmt.Sprintf("seed%d/inserted", seed), func(t *testing.T) { assertSeedEqualsInserts(t, tab, cfds) })

		// Direct writes between folds patch the columns; values that leave
		// strand dead codes.
		for range 40 {
			ids := tab.Snapshot().IDs()
			id := ids[rng.Intn(len(ids))]
			switch rng.Intn(4) {
			case 0:
				tab.Delete(id)
			case 1:
				tab.MustInsert(seedRow(rng))
			default:
				if _, err := tab.SetCell(id, rng.Intn(seedSchema.Arity()), seedPool[rng.Intn(len(seedPool))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Run(fmt.Sprintf("seed%d/patched", seed), func(t *testing.T) { assertSeedEqualsInserts(t, tab, cfds) })

		// Novel values through one cell, a fold each, strand enough dead
		// codes in C to compact it; then the cell takes a pool value again.
		before := relstore.ReadBuildOps()
		id := tab.Snapshot().IDs()[0]
		for k := range 80 {
			if _, err := tab.SetCell(id, 2, types.NewString(fmt.Sprintf("novel-%d", k))); err != nil {
				t.Fatal(err)
			}
			tab.Snapshot()
		}
		if _, err := tab.SetCell(id, 2, seedPool[rng.Intn(len(seedPool))]); err != nil {
			t.Fatal(err)
		}
		if relstore.ReadBuildOps().Sub(before).RebuiltColumns == 0 {
			t.Fatal("no compaction")
		}
		t.Run(fmt.Sprintf("seed%d/compacted", seed), func(t *testing.T) { assertSeedEqualsInserts(t, tab, cfds) })
	}
}

// heldBy returns the heap bytes only tr holds: the live heap with tr less
// the live heap without it. The caller must not use tr afterwards, and
// must keep tr's table alive past the call.
func heldBy(tr *Tracker) int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	with := int64(m.HeapAlloc)
	runtime.KeepAlive(tr)
	runtime.GC()
	runtime.ReadMemStats(&m)
	return with - int64(m.HeapAlloc)
}

// churn runs cycles insert/delete pairs through tr on tab: each inserts a
// row from the pool and deletes a live tuple picked at random, so some
// tuples outlive many re-bases.
func churn(t *testing.T, rng *rand.Rand, tab *relstore.Table, tr *Tracker, cycles int, pool []relstore.Tuple) {
	t.Helper()
	live := slices.Clone(tab.Snapshot().IDs())
	for range cycles {
		id, err := tr.Insert(pool[rng.Intn(len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(len(live))
		if err := tr.Delete(live[k]); err != nil {
			t.Fatal(err)
		}
		live[k] = id
	}
}

// TestTrackerRebaseBoundsChurn: ids are never reused, so a tracker whose
// slots only grew would hold state for every id a churning table ever
// issued. 50 000 insert/delete cycles on a 1 000-row table (random
// deletes: some tuples outlive many re-bases) leave the tracker within
// twice the heap it held fresh, and equal to batch detection.
func TestTrackerRebaseBoundsChurn(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 1000, Seed: 5, NoiseRate: 0.05})
	tab, cfds := ds.Dirty, datagen.StandardCFDs()
	snap := tab.Snapshot()
	pool := snap.Rows()
	fresh := func() *Tracker {
		tr, err := NewTracker(tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if _, err := DetectFactorised(context.Background(), snap, cfds); err != nil {
		t.Fatal(err) // the snapshot's lazy artefacts are the table's, not the tracker's
	}
	freshHeap := heldBy(fresh())
	tr := fresh()
	churn(t, rand.New(rand.NewSource(1)), tab, tr, 50000, pool)
	if len(tr.dirtyRef) > 2*tab.Len()+256 {
		t.Errorf("%d slots for %d live tuples", len(tr.dirtyRef), tab.Len())
	}
	assertMatchesBatch(t, tab, cfds, tr)
	trackerIndex(t, tr)
	held := heldBy(tr)
	runtime.KeepAlive(tab)
	t.Logf("tracker heap: %d B fresh, %d B after churn", freshHeap, held)
	if held > 2*freshHeap {
		t.Errorf("after churn the tracker holds %d B, more than twice its fresh %d B", held, freshHeap)
	}
}

// TestTrackerRebaseConcurrentReaders: re-bases happen under the write lock
// while readers run. CI runs it under -race -count=10.
func TestTrackerRebaseConcurrentReaders(t *testing.T) {
	tab := relstore.NewTable(seedSchema)
	rng := rand.New(rand.NewSource(3))
	pool := make([]relstore.Tuple, 40)
	for i := range pool {
		pool[i] = seedRow(rng)
		tab.MustInsert(pool[i])
	}
	cfds, err := cfd.ParseSet(seedCFDs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				vio := tr.VioMap()
				if len(vio) > tab.Len()+1 {
					t.Errorf("%d dirty tuples in a table of %d", len(vio), tab.Len())
					return
				}
				for id := range vio {
					tr.Vio(id)
				}
				if fr, ok := tr.FactorReport(tab.Snapshot()); ok && fr.Explode().Version != fr.Version {
					t.Error("exploded factorised report changed version")
					return
				}
				tr.Report()
			}
		}()
	}
	churn(t, rng, tab, tr, 3000, pool) // a re-base every 300 cycles or so
	close(done)
	wg.Wait()
	assertMatchesBatch(t, tab, cfds, tr)
	trackerIndex(t, tr)
}

// TestTrackerLiveHeap gates the tracker's heap on the 10 000-row datagen
// table (seed 5) at its measured size plus 5 %: 780 kB, against 1.71 MB
// when the per-tuple state was maps of pointer-bearing entries.
func TestTrackerLiveHeap(t *testing.T) {
	tab := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5}).Clean
	cfds := datagen.StandardCFDs()
	if _, err := DetectFactorised(context.Background(), tab.Snapshot(), cfds); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	held := heldBy(tr)
	runtime.KeepAlive(tab)
	t.Logf("tracker heap: %d B", held)
	const limit = 780_000 * 105 / 100
	if held > limit {
		t.Errorf("the tracker holds %d B, more than %d", held, limit)
	}
}
