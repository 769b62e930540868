package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// TestHarnessRandomizedSequences drives seeded random mutation programs
// through the full oracle — relstore patch, tracker report, discovery
// session — checking byte-identity at every version.
func TestHarnessRandomizedSequences(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		h, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 160)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if err := h.Drive(data, 1, func() error { return h.Check(t.Context()) }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestHarnessEmptiesTable drains the table to zero rows and rebuilds it,
// crossing the structural edge cases (empty snapshot, empty PLIs, empty
// mine) with the oracle active.
func TestHarnessEmptiesTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeedRows = 3
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 deletes (opcode 1), then 4 inserts (opcode 0 + 3 domain bytes).
	prog := []byte{
		1, 0, 1, 0, 1, 0,
		0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 2, 0, 0, 3, 1,
	}
	if err := h.Drive(prog, 1, func() error { return h.Check(t.Context()) }); err != nil {
		t.Fatal(err)
	}
}

// TestHarnessOverIngestBuiltTable: every other harness table is built by
// Insert; this one comes from relstore.ReadCSV, whose columns are interned
// during the load and head the lineage every later edit patches. The raw
// texts spell one Equal-class five ways (1, 01, +1 are INT 1; 1.0, 1e0 are
// FLOAT 1), so memoised raw fields, shared codes and class counts are all in
// play when the mutation programs start killing and reviving values.
func TestHarnessOverIngestBuiltTable(t *testing.T) {
	const body = "K,V,W\nk0,v0,good\nk1,1,bad\nk2,1.0,\nk0,NaN,good\nk1,,bad\n" +
		"k0,01,\nk2,1e0,good\nk0,+1,bad\nk1,v1,good\nk2,nan,\n"
	cfg := DefaultConfig()
	for seed := int64(0); seed < 4; seed++ {
		tab, err := relstore.ReadCSV("f", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		h, err := Attach(tab, cfg.CFDs, cfg.Discovery)
		if err != nil {
			t.Fatal(err)
		}
		h.Cfg.Domain = cfg.Domain
		if err := h.Check(t.Context()); err != nil {
			t.Fatalf("seed %d, as loaded: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 160)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if err := h.Drive(data, 1, func() error { return h.Check(t.Context()) }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestHarnessOverForkedTable: the harness table is a Clone() of an
// ingest-built one, so its tracker, detectors and discovery session read
// columns borrowed from the source's lineage and its edits fork them — while
// a second harness keeps mutating the source, one op per op. Both sides must
// hold every layer's oracle at every version.
func TestHarnessOverForkedTable(t *testing.T) {
	const body = "K,V,W\nk0,v0,good\nk1,1,bad\nk2,1.0,\nk0,NaN,good\nk1,,bad\n" +
		"k0,01,\nk2,1e0,good\nk0,+1,bad\nk1,v1,good\nk2,nan,\n"
	cfg := DefaultConfig()
	for seed := int64(0); seed < 4; seed++ {
		tab, err := relstore.ReadCSV("f", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		warm(tab)
		var sides [2]*Harness // the source, then its clone
		for i, tab := range []*relstore.Table{tab, tab.Clone()} {
			if sides[i], err = Attach(tab, cfg.CFDs, cfg.Discovery); err != nil {
				t.Fatal(err)
			}
			sides[i].Cfg.Domain = cfg.Domain
		}
		src, fork := sides[0], sides[1]
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 240)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		// The source's program is the first third, dealt out five bytes — an
		// op or two — per op of the clone's.
		srcProg := data[:80]
		err = fork.Drive(data[80:], 1, func() error {
			n := min(5, len(srcProg))
			if err := src.Drive(srcProg[:n], 1, func() error { return src.Check(t.Context()) }); err != nil {
				return fmt.Errorf("source: %w", err)
			}
			srcProg = srcProg[n:]
			return fork.Check(t.Context())
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// incrementalSeeds are FuzzIncrementalOracle's seed programs.
var incrementalSeeds = [][]byte{
	{},
	{0, 1, 2, 0, 2, 0, 1, 3, 1, 1, 2, 0, 0, 4},
	{2, 0, 1, 3, 2, 1, 1, 4, 2, 2, 1, 5, 3, 3, 1, 2},
	{1, 0, 1, 1, 1, 2, 0, 1, 1, 1, 0, 2, 2, 2},
	{0, 2, 5, 2, 2, 4, 1, 3, 3, 5, 1, 0, 2, 6, 1, 1, 0, 1, 2, 0},
	// Pile inserts onto one K class while flipping V through the numeric
	// corner values: drives a single large multi-tuple group through RHS
	// histogram ties, the MajorityKey tie-break the factorised report must
	// reproduce byte for byte when exploded.
	{0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 1, 5, 2, 1, 1, 4},
	// Set-heavy program: rewrite V across existing rows so groups flip
	// clean <-> violating without membership changes.
	{3, 0, 1, 0, 3, 1, 1, 1, 3, 2, 1, 2, 3, 3, 1, 3, 3, 4, 1, 4, 3, 5, 1, 5},
	// The deltas a first-occurrence code numbering could not patch. Column V
	// of the seed table reads v1, INT 1, FLOAT 1.0, NaN, NULL, v0, v1, INT 1.
	{1, 0},                                   // delete a first occurrence
	{2, 0, 1, 0xC0, 2, 3, 0, 0xC1},           // novel-value edits (V, then K)
	{2, 5, 1, 1, 2, 5, 1, 0},                 // v0 dies, then returns to its old code
	{2, 1, 1, 0, 2, 7, 1, 0, 2, 0, 1, 2},     // canonical INT 1 dies beside FLOAT 1.0, then revives
	{2, 1, 1, 0, 2, 7, 1, 0, 2, 2, 1, 0},     // the {INT 1, FLOAT 1.0} class empties
	bytes.Repeat([]byte{2, 0, 1, 0xC0}, 100), // dead codes pile up past the compaction threshold
	// The tracker's index. V is the RHS of [K=_] -> [V=_] and the LHS of
	// [V=_] -> [W=_], so each V write below lands in both roles. Group k0
	// holds ids 0 (v1), 3 (NaN) and 6 (v1).
	{2, 3, 1, 1, 2, 3, 1, 4, 2, 3, 1, 1, 0, 0, 4, 0},             // k0's NaN class empties, re-forms by SetCell, empties, re-forms by insert
	{2, 1, 1, 3, 2, 1, 1, 0, 2, 1, 1, 3, 2, 7, 1, 3, 2, 2, 1, 2}, // INT 1 <-> FLOAT 1.0: kept as Equal, then written across v0
	{2, 0, 1, 4, 2, 3, 1, 4, 2, 0, 1, 1, 2, 6, 1, 4},             // NaN written into, kept in, and moved out of a group and a class
	// NULL on both sides of [V=_] -> [W=_]: two inserted V=NULL rows join
	// id 4's NULL group with W = bad and W = NULL, v1's group gains a NULL
	// RHS class beside good, then id 4 — the NULL group's first member —
	// moves out and the group still disagrees.
	{0, 0, 5, 1, 0, 1, 5, 2, 2, 0, 2, 0, 2, 4, 1, 0},
}

// TestRecordsAreCanonical holds Records to the canonical order without its
// merge (CheckRecords): over datagen at three noise rates and three worker
// counts, and over the tracker's report at every step of each
// FuzzIncrementalOracle seed program.
func TestRecordsAreCanonical(t *testing.T) {
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 21, NoiseRate: noise})
		for _, workers := range []int{1, 2, 8} {
			fr, err := detect.ColumnarDetector{Workers: workers}.DetectFactorised(t.Context(), ds.Dirty.Snapshot(), cfds)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckRecords(fr); err != nil {
				t.Errorf("noise=%v workers=%d: %v", noise, workers, err)
			}
		}
	}
	for i, seed := range incrementalSeeds {
		h, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		err = h.Drive(seed, 1, func() error {
			fr, ok := h.Tracker.FactorReport(h.Tab.Snapshot())
			if !ok {
				return fmt.Errorf("the tracker refused its table's snapshot")
			}
			return CheckRecords(fr)
		})
		if err != nil {
			t.Errorf("seed program %d: %v", i, err)
		}
	}
}

func FuzzIncrementalOracle(f *testing.F) {
	for _, seed := range incrementalSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // bound per-exec cost, not coverage
		}
		h, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Drive(data, 1, func() error { return h.Check(t.Context()) }); err != nil {
			t.Fatal(err)
		}
	})
}
