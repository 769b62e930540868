package relstore

import (
	"bytes"
	"fmt"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// FuzzSnapshotPatch decodes an arbitrary byte string into a mutation
// sequence over a seeded three-column table, applies it to the table and to
// a naive row model (twin, model_test.go), and asserts after every single
// mutation that the table's point reads agree with the model and the served
// (folded) snapshot equals a batch build of the model up to a renaming of
// dictionary codes — rows, dictionaries, code vectors, occurrence counts,
// lookups, PLIs, probe vectors, key tables and class orders included. The
// per-version check force-builds every artifact, so each next version
// patches a fully warm predecessor.
//
// Byte vocabulary: each op reads an opcode byte (low two bits select
// insert/delete/setcell/update) and then value/row/column selector bytes
// from the stream; missing bytes read as zero. The value domain is
// patchValues (patch_test.go), which packs the Equal-vs-exact corner cases
// (INT 1 / FLOAT 1.0, NULL, NaN) into eleven values; a value byte of 0xC0
// or above is a string the table has never held, so programs can grow
// dictionaries and leave dead codes behind without bound. An opcode with
// forkBit set forks first: the table the op was headed for is Clone()d with
// its model, the remaining ops alternate between it and its clone, and every
// check holds both to their own models.
func FuzzSnapshotPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// insert a few rows, edit cells, delete, update
	f.Add([]byte{0, 3, 4, 5, 0, 0, 1, 2, 2, 0, 1, 7, 1, 0, 3, 1, 8, 9, 10})
	// hammer one row with representation flips (INT 1 <-> FLOAT 1.0)
	f.Add([]byte{0, 3, 3, 3, 2, 0, 0, 4, 2, 0, 0, 3, 2, 0, 1, 4, 3, 0, 4, 4, 4})
	// interleave inserts and deletes so positions shift under the patcher
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 1, 0, 0, 5, 6, 7, 1, 1, 0, 8, 9, 10})
	// The deltas a first-occurrence code numbering could not patch. Column A
	// of the seed table reads a, b, c, INT 1, FLOAT 1.0, INT 2 top to bottom.
	f.Add([]byte{1, 0})                                         // delete a first occurrence (of three values)
	f.Add([]byte{2, 1, 0, 0xC0, 2, 1, 0, 0xC1})                 // novel-value edits
	f.Add([]byte{2, 0, 0, 1, 2, 0, 0, 0})                       // "a" dies, then returns to its old code
	f.Add([]byte{1, 3, 2, 0, 0, 3})                             // canonical INT 1 dies beside FLOAT 1.0, then revives
	f.Add([]byte{1, 3, 1, 3, 0, 4, 4, 4})                       // the {INT 1, FLOAT 1.0} class empties, then returns via FLOAT
	f.Add(bytes.Repeat([]byte{2, 0, 0, 0xC0}, 3*compactDead/2)) // dead codes pile up past the compaction threshold
	for _, seed := range forkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runMutationSequence(t, data)
	})
}

// forkBit on an opcode byte forks before the op. No seed written before the
// bit existed sets it on an opcode (their value bytes >= 0xC0 are never read
// as one), so those programs run as they always did.
const forkBit = 0x80

var forkSeeds = [][]byte{
	// Fork, then novel values in column A on both sides, twice each, then
	// the first one's old value back on each side.
	{forkBit | 2, 1, 0, 0xC0, 2, 1, 0, 0xC1, 2, 2, 0, 0xC2, 2, 2, 0, 0xC3, 2, 1, 0, 1, 2, 1, 0, 1},
	// Fork, then only the clone strands dead codes past the compaction
	// threshold; the source keeps rewriting one cell with values it holds.
	append([]byte{forkBit | 2, 0, 1, 0}, bytes.Repeat([]byte{2, 0, 0, 0xC0, 2, 0, 1, 1, 2, 0, 0, 0xC0, 2, 0, 1, 0}, 3*compactDead/4)...),
}

// FuzzForkedSnapshotPatch is FuzzSnapshotPatch with every program forking at
// its first op, so a short fuzz burst spends all of its time on two tables
// sharing one lineage.
func FuzzForkedSnapshotPatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 1, 0, 0xC0, 2, 1, 0, 0xC1, 1, 0, 1, 0, 0, 3, 4, 0xC2})
	for _, seed := range forkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			data = append([]byte{data[0] | forkBit}, data[1:]...)
		}
		runMutationSequence(t, data)
	})
}

// runMutationSequence is the shared driver behind FuzzSnapshotPatch and
// FuzzForkedSnapshotPatch.
func runMutationSequence(t *testing.T, data []byte) {
	w := newTwin(schema.New("f", "A", "B", "C"))
	for i := 0; i < 6; i++ {
		w.insert(Tuple{patchValue(i), patchValue(i + 1), patchValue(i + 2)})
	}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	novel := 0
	value := func() types.Value {
		if b := next(); b < 0xC0 {
			return patchValue(b)
		}
		novel++
		return types.NewString(fmt.Sprintf("n%d", novel))
	}
	row := func() Tuple { return Tuple{value(), value(), value()} }
	// sides[1] is sides[0]'s clone once a program has forked; turn is the
	// side the next op goes to.
	sides, turn := []*twin{w}, 0
	check := func() {
		for side, w := range sides {
			if err := w.check(); err != nil {
				t.Fatalf("side %d, version %d after %d input bytes: %v", side, w.tab.Version(), pos, err)
			}
		}
	}
	check()
	for pos < len(data) {
		op := next()
		w := sides[turn]
		if op&forkBit != 0 {
			sides, turn = []*twin{w, w.clone()}, 0
		}
		turn = (turn + 1) % len(sides)
		ids := w.m.ids
		switch {
		case op%4 == 0 || len(ids) == 0:
			w.insert(row())
		case op%4 == 1:
			w.delete(ids[next()%len(ids)])
		case op%4 == 2:
			w.setCell(ids[next()%len(ids)], next()%3, value())
		default:
			w.update(ids[next()%len(ids)], row())
		}
		check()
	}
}
