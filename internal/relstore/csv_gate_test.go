package relstore_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// TestIngestBuildsTheLineage is the count face of column-direct ingest, on
// the benchmark's reload-clean table (datagen's 20 000 x 7 clean relation):
// the load leaves nothing for the first read to build and builds no rows —
// 0.01 allocations a cell and 7 bytes a body byte at most — a detection pass
// over it decodes no row, and the columns it interned head the lineage the
// first edits patch.
func TestIngestBuildsTheLineage(t *testing.T) {
	const n, arity = 20000, 7
	clean := datagen.Generate(datagen.Config{Tuples: n, Seed: 1}).Clean
	var body bytes.Buffer
	if err := relstore.WriteCSV(clean, &body); err != nil {
		t.Fatal(err)
	}

	before := relstore.ReadBuildOps()
	tab, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ops, want := relstore.ReadBuildOps().Sub(before), (relstore.BuildOps{InternedCells: n * arity, BatchColumns: arity, BatchSnapshots: 1}); ops != want {
		t.Errorf("load ops = %+v, want %+v", ops, want)
	}
	before = relstore.ReadBuildOps()
	tab.Snapshot().Columnar()
	if ops := relstore.ReadBuildOps().Sub(before); ops != (relstore.BuildOps{}) {
		t.Errorf("first Columnar() after the load built something: %+v", ops)
	}
	// ReadCSV(WriteCSV(t)) is t — for a t that came from CSV: the generator
	// stores ZIP 600096 as a STRING, which no CSV can say.
	var again bytes.Buffer
	if err := relstore.WriteCSV(tab, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body.Bytes()) {
		t.Error("WriteCSV(ReadCSV(body)) is not body")
	}
	back, err := relstore.ReadCSV("customer", &again)
	if err != nil {
		t.Fatal(err)
	}
	if err := relstore.DiffSnapshots(back.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Errorf("ReadCSV(WriteCSV(t)) differs from t: %v", err)
	}

	// Through a reader that hides the body's length, as a chunked request
	// body does, so the body buffer grows as it reads.
	load := func() {
		if _, err := relstore.ReadCSV("customer", struct{ io.Reader }{bytes.NewReader(body.Bytes())}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, load); allocs > 0.01*n*arity {
		t.Errorf("ReadCSV made %.0f allocations for %d cells, want <= %.0f", allocs, n*arity, 0.01*n*arity)
	}
	// The race detector's instrumentation allocates on the runtime's own
	// paths (a growing slice allocates twice), so it has no byte gate.
	if !raceEnabled {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		load()
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 7*uint64(body.Len()) {
			t.Errorf("ReadCSV allocated %d bytes for a %d-byte body, want <= 7x", got, body.Len())
		}
	}

	// The served detect path and the columnar engine read codes, not rows.
	fresh, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stop := relstore.CountDecodes()
	if _, err := detect.DetectFactorised(t.Context(), fresh.Snapshot(), datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if _, err := (detect.ColumnarDetector{}).DetectSnapshot(t.Context(), fresh.Snapshot(), datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if rows := stop(); rows != 0 {
		t.Errorf("a load and two detection passes decoded %d rows, want none", rows)
	}

	before = relstore.ReadBuildOps()
	relstore.ChurnRound(tab)
	tab.Snapshot().Columnar()
	ops := relstore.ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 1 || ops.BatchSnapshots != 0 {
		t.Errorf("PatchedSnapshots = %d BatchSnapshots = %d, want 1/0", ops.PatchedSnapshots, ops.BatchSnapshots)
	}
	if ops.PatchedColumns != arity || ops.BatchColumns != 0 || ops.RebuiltColumns != 0 {
		t.Errorf("PatchedColumns = %d BatchColumns = %d RebuiltColumns = %d, want %d/0/0",
			ops.PatchedColumns, ops.BatchColumns, ops.RebuiltColumns, arity)
	}
	if ops.InternedCells > 64 {
		t.Errorf("InternedCells = %d, want <= 64 for one round of edits", ops.InternedCells)
	}
	if err := relstore.DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Errorf("patched ingest-built snapshot vs rebuild: %v", err)
	}
}

// BenchmarkReadCSV loads the benchmark's reload-clean body; for profiling the
// loader (`-cpuprofile`, `-memprofile`) outside the HTTP round trip.
// relstore's reader hides the body's length, as a chunked request body does,
// so the body buffer doubles; sized declares it, as the server does from a
// Content-Length. encoding-csv is the floor: encoding/csv alone reading the
// same bytes, each record into one reused slice, with nothing interned.
func BenchmarkReadCSV(b *testing.B) {
	clean := datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1}).Clean
	var body bytes.Buffer
	if err := relstore.WriteCSV(clean, &body); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sized bool
	}{{"relstore", false}, {"sized", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := io.Reader(struct{ io.Reader }{bytes.NewReader(body.Bytes())})
				if c.sized {
					r = relstore.Sized{Reader: r, N: body.Len()}
				}
				if _, err := relstore.ReadCSV("customer", r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("encoding-csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cr := csv.NewReader(struct{ io.Reader }{bytes.NewReader(body.Bytes())})
			cr.FieldsPerRecord, cr.ReuseRecord = -1, true
			for {
				if _, err := cr.Read(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestReadCSVReservesWhatTheBodyHolds: lines that hold no record reserve no
// rows. A wide table of 1 025 distinct records (every column key-like past
// the presize sample) followed by 2 MiB of blank lines, or of one quoted
// field of empty lines, allocates at most 12x the body through a reader that
// hides its length, whose buffer grows to take up to 4x, and at most 9x
// through a Sized reader, whose buffer is the body and its outgrown steps,
// at most a fifteenth more; the quoted field is
// copied from body to record buffer to dictionary. Short
// lines that fail the field count only when the loader reaches them are
// capped by the first block's bytes per record: they reserve at most 1.5x
// what a body of as many bytes of such records takes.
func TestReadCSVReservesWhatTheBodyHolds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on the runtime's own paths")
	}
	const arity, rows, filler = 16, 1025, 2 << 20
	record := func(i int) string {
		line := make([]string, arity)
		for j := range line {
			line[j] = fmt.Sprintf("v%05d", i)
		}
		return "\n" + strings.Join(line, ",")
	}
	names := make([]string, arity)
	for j := range names {
		names[j] = fmt.Sprintf("C%d", j)
	}
	var records strings.Builder
	records.WriteString(strings.Join(names, ","))
	for i := 0; i < rows; i++ {
		records.WriteString(record(i))
	}
	load := func(body string, sized bool) (uint64, error) {
		r := io.Reader(struct{ io.Reader }{strings.NewReader(body)})
		if sized {
			r = relstore.Sized{Reader: r, N: len(body)}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := relstore.ReadCSV("wide", r)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, err
	}
	last := record(rows - 1)
	prefix := strings.TrimSuffix(records.String(), last[strings.LastIndexByte(last, ','):]) // the last field is the case's
	for _, tc := range []struct{ name, tail string }{
		{"blank lines", ",x" + strings.Repeat("\n", filler)},
		{"a quoted field of newlines", ",\"" + strings.Repeat("\n", filler) + "\"\n"},
	} {
		body := prefix + tc.tail
		for _, c := range []struct {
			sized bool
			bound uint64
		}{{false, 12}, {true, 9}} {
			got, err := load(body, c.sized)
			if err != nil {
				t.Fatal(err)
			}
			if got > c.bound*uint64(len(body)) {
				t.Errorf("%s (sized %v): ReadCSV allocated %d bytes for a %d-byte body, want <= %dx", tc.name, c.sized, got, len(body), c.bound)
			}
		}
	}

	short := records.String() + strings.Repeat("\na", filler/2)
	for i := rows; records.Len() < len(short); i++ {
		records.WriteString(record(i))
	}
	got, err := load(short, false)
	if err == nil {
		t.Fatal("short lines loaded")
	}
	want, err := load(records.String(), false)
	if err != nil {
		t.Fatal(err)
	}
	if 2*got > 3*want {
		t.Errorf("short lines: ReadCSV allocated %d bytes, a body of as many bytes of records %d: want <= 1.5x", got, want)
	}
}
