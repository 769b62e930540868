package relstore

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

const sampleCSV = `NAME,CNT,CITY,ZIP,STR,CC,AC
Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Rick,UK,Edinburgh,EH2 4SD,Crichton,44,131
Joe,US,New York,01202,Mtn Ave,1,908
`

func TestReadCSV(t *testing.T) {
	tab, err := ReadCSV("customer", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	sc := tab.Schema()
	if sc.Arity() != 7 || sc.Name != "customer" {
		t.Fatalf("schema = %v", sc)
	}
	ids := tab.Snapshot().IDs()
	row, _ := tab.Get(ids[0])
	if row[sc.MustPos("NAME")].Str() != "Mike" {
		t.Errorf("row = %v", row)
	}
	// CC column inferred as INT.
	if row[sc.MustPos("CC")].Kind() != types.KindInt {
		t.Errorf("CC kind = %v", row[sc.MustPos("CC")].Kind())
	}
	// ZIP with space stays a string.
	if row[sc.MustPos("ZIP")].Kind() != types.KindString {
		t.Errorf("ZIP kind = %v", row[sc.MustPos("ZIP")].Kind())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab, err := ReadCSV("customer", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("customer", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("round-trip len %d != %d", back.Len(), tab.Len())
	}
	origRows := tab.Snapshot().Rows()
	backRows := back.Snapshot().Rows()
	for i := range origRows {
		if !origRows[i].Equal(backRows[i]) {
			t.Errorf("row %d: %v != %v", i, origRows[i], backRows[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	bad := "A,B\n1,2,3\n"
	if _, err := ReadCSV("x", strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "csv line 2: 3 fields, want 2") {
		t.Errorf("ragged row: err = %v", err)
	}
	if _, err := ReadCSV("x", strings.NewReader("A,B\n1,2\n\"open,3\n")); err == nil {
		t.Error("a csv.Reader error should fail the load")
	}
}

func TestReadCSVNulls(t *testing.T) {
	tab, err := ReadCSV("x", strings.NewReader("A,B\nval,\n"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Snapshot().Rows()
	if !rows[0][1].IsNull() {
		t.Errorf("empty field should parse as NULL, got %v", rows[0][1])
	}
}

// TestReadCSVHeader: a column must be reachable by its name. Duplicate
// (case-insensitive) and empty names are refused naming the column, and a
// UTF-8 byte order mark does not become part of the first name.
func TestReadCSVHeader(t *testing.T) {
	for in, want := range map[string]string{
		"a,A\n1,2\n":         `column 2 ("A") repeats column 1 ("a")`,
		"a,b,a\n1,2,3\n":     `column 3 ("a") repeats column 1 ("a")`,
		"a,\n1,2\n":          "column 2 has no name",
		"\"\"\n1\n":          "column 1 has no name",
		"\ufeff,b\n1,2\n":    "column 1 has no name",
		"\ufeffa,b,B\n1,2\n": `column 3 ("B") repeats column 2 ("b")`,
	} {
		if _, err := ReadCSV("x", strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCSV(%q): err = %v, want one naming %s", in, err, want)
		}
	}
	for _, in := range []string{"\ufeffNAME,CC\nMike,44\n", "\ufeff\"NAME\",CC\nMike,44\n"} {
		tab, err := ReadCSV("x", strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", in, err)
		}
		if pos, ok := tab.Schema().Pos("NAME"); !ok || pos != 0 || tab.Schema().Attrs[0].Name != "NAME" {
			t.Errorf("ReadCSV(%q): attrs = %q, want the mark stripped", in, tab.Schema().AttrNames())
		}
	}
	// Only a leading mark is one: elsewhere the bytes are data.
	tab, err := ReadCSV("x", strings.NewReader("A,\ufeffB\n\ufeff1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if row, _ := tab.Get(0); tab.Schema().Attrs[1].Name != "\ufeffB" || row[0].Kind() != types.KindString {
		t.Errorf("inner marks: attrs %q row %v", tab.Schema().AttrNames(), row)
	}
}

// readCSVByRows is the specification of ReadCSV, written against the public
// row API: the header rules, then NewTable and one Insert of types.Parse'd
// fields per record — the row-at-a-time loader ReadCSV used to be — with the
// row model of what it inserted.
func readCSVByRows(name string, r io.Reader) (*twin, error) {
	br := bufio.NewReader(r)
	if bom, _ := br.Peek(3); string(bom) == "\xef\xbb\xbf" {
		br.Discard(3)
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relstore: read csv header: %w", err)
	}
	for j, h := range header {
		if h == "" {
			return nil, fmt.Errorf("relstore: csv header: column %d has no name", j+1)
		}
		for i, g := range header[:j] {
			if strings.ToLower(g) == strings.ToLower(h) {
				return nil, fmt.Errorf("relstore: csv header: column %d (%q) repeats column %d (%q)", j+1, h, i+1, g)
			}
		}
	}
	w := newTwin(schema.New(name, header...))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return w, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: read csv: %w", err)
		}
		line++
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relstore: csv line %d: %d fields, want %d", line, len(rec), len(header))
		}
		row := make(Tuple, len(rec))
		for i, f := range rec {
			row[i] = types.Parse(f)
		}
		w.insert(row)
	}
}

// checkBulkLoad holds ReadCSV to readCSVByRows on one input: both fail with
// the same message, or the bulk-loaded table holds the rows the row API
// inserted — same length, ids, version and exact cells, and its pre-seeded
// snapshot equal to a batch build of that row model up to code renaming. A
// first edit must then patch the ingest-built columns into what the edited
// model builds.
func checkBulkLoad(t *testing.T, data []byte) {
	t.Helper()
	bulk, berr := ReadCSV("f", bytes.NewReader(data))
	ref, rerr := readCSVByRows("f", bytes.NewReader(data))
	if berr != nil || rerr != nil {
		if berr == nil || rerr == nil || berr.Error() != rerr.Error() {
			t.Fatalf("errors differ: bulk %v, row API %v", berr, rerr)
		}
		return
	}
	if got, want := bulk.Schema().AttrNames(), ref.tab.Schema().AttrNames(); fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Fatalf("attrs: bulk %q, row API %q", got, want)
	}
	before := ReadBuildOps()
	snap := bulk.Snapshot()
	snap.Columnar()
	if ops := ReadBuildOps().Sub(before); ops != (BuildOps{}) {
		t.Fatalf("first read after the load built something: %+v", ops)
	}
	w := &twin{bulk, ref.m}
	if err := w.check(); err != nil {
		t.Fatalf("bulk-loaded table vs the row API's rows: %v", err)
	}
	if bulk.Len() == 0 {
		return
	}
	before = ReadBuildOps()
	w.setCell(0, 0, types.NewString("\x00edited"))
	if err := w.check(); err != nil {
		t.Fatalf("after the first edit: %v", err)
	}
	// One batch snapshot and its columns are the model's; the served side
	// must have patched column 0 of the ingest-built lineage.
	ops := ReadBuildOps().Sub(before)
	if arity := int64(bulk.Schema().Arity()); ops.PatchedSnapshots != 1 || ops.PatchedColumns != 1 ||
		ops.SharedColumns != arity-1 || ops.BatchColumns != arity || ops.RebuiltColumns != 0 {
		t.Fatalf("first edit did not patch the ingest-built columns: %+v", ops)
	}
}

// csvSeeds are FuzzReadCSV's seeds, also run as a plain test.
var csvSeeds = []string{
	sampleCSV,
	"",
	"A\n",
	"A,B\n\"multi\nline\",x\n\"multi\nline\",y\n", // quoted newline
	"A,B\n1,2\n3\n", // ragged record
	"A,B\n1,2,3\n",
	"A,B\r\nx,1\r\ny,2\r\n", // CRLF
	"\ufeffA,B\nx,1\n",      // BOM
	"\ufeff\"A\",B\nx,1\n",
	"\ufeff",
	"\xef\xbb",
	"A\n1\n01\n1.0\n1e0\n+1\n1\n", // one Equal-class, two exact codes, five raw texts
	"A,B\n\"\",x\n,\"\"\n",        // quoted empty is NULL too
	"A\nNaN\nnan\nNAN\n+nan\n",
	"A\n-0\n0.0\n-0.0\n0\n",
	"A\ntrue\nTRUE\nTrue\nfalſe\nfalse\n",
	"A,B\n,x\n,y\n,x\n", // a column that is all-NULL
	"A\nInfinity\n+Inf\n-inf\ninf\n1_000\n0x1p-2\n",
	"A,B\nx,North St\ny,nine\nx,North St\n",
	"A,a\n1,2\n",
	"A,\n1,2\n",
	"A,B\nx,\"bad\"quote\n",
	"A,B\n\xff,\xfe\xff\n\xff,z\n",
	"A\n" + strings.Repeat("v\n", 300) + strings.Repeat("w\n", 300),
	"A,B\nx,\"multi\nline\"",                          // a quoted multi-line last record, no final newline
	"A,B\nx,1\r",                                      // a '\r' before the end of the body is dropped
	"A,B\nx,\"crlf\r\ninside\"\r\n",                   // CRLF inside quotes is LF
	"A,B\n\nx,1\n\r\n\n\ny,2\n\n",                     // blank lines between records
	"A,B\nx,\"\"\"q\"\"\"\n\"a\nb\r\",\"\"\r\n\"open", // escaped quotes, then an unterminated one
}

func TestReadCSVMatchesRowAPI(t *testing.T) {
	for _, in := range csvSeeds {
		checkBulkLoad(t, []byte(in))
	}
}

// FuzzReadCSV: arbitrary bytes never panic the loader, and whatever it
// accepts it loads exactly as the row API would (checkBulkLoad).
func FuzzReadCSV(f *testing.F) {
	for _, in := range csvSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBulkLoad(t, data)
	})
}

// TestReadCSVBoundaries runs checkBulkLoad on what the fuzzer's small inputs
// never reach: more records than the presize sample — a key-like column of
// STRINGs and one of INTs, a column that turns key-like only after the
// sample, an all-NULL one — and texts longer than an arena chunk or
// straddling a chunk's end.
func TestReadCSVBoundaries(t *testing.T) {
	const n = 3 * presizeAfter
	var in strings.Builder
	in.WriteString("KEY,ID,LATE,NULLS\n")
	for i := 0; i < n; i++ {
		late := fmt.Sprint(i % 7)
		if i >= presizeAfter {
			late = fmt.Sprintf("late%d", i)
		}
		fmt.Fprintf(&in, "k%05d,%d,%s,\n", i, i, late)
	}
	checkBulkLoad(t, []byte(in.String()))
	tab, err := ReadCSV("x", strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	cols := tab.Snapshot().Columnar().cols
	if key, late := cols[0], cols[2]; cap(key.dict) < n+n/4 || cap(late.dict) >= n+n/4 {
		t.Errorf("dictionary capacities KEY %d LATE %d: want KEY presized to %d and LATE not", cap(key.dict), cap(late.dict), n+n/4)
	}
	for j, c := range cols[1:] {
		for text, code := range c.in.byStr {
			if c.dict[code].Kind() != types.KindString {
				t.Errorf("column %d: the load left raw text %q (%v) among the STRING payloads", j+1, text, c.dict[code])
			}
		}
	}

	in.Reset()
	in.WriteString("A,B\n")
	long := strings.Repeat("L", arenaChunk+10)
	fmt.Fprintf(&in, "%s,1\n\"%s\n\",2\n", long, long[1:])
	for i := 0; i < 3*arenaChunk/1000; i++ { // about 1 KB each: some cross a chunk's end
		fmt.Fprintf(&in, "%04d%s,%d\n", i, strings.Repeat("s", 997+i%5), i)
	}
	fmt.Fprintf(&in, "%s,3\n", long)
	checkBulkLoad(t, []byte(in.String()))
}

// TestReadCSVDoesNotPinTheInput: the loader reads the body into one buffer
// and hands fields out as slices of a record buffer. What the table keeps of
// a field is an arena copy of its distinct text, so it keeps distinct bytes,
// never lines: a NOTE every row shares (a kilobyte the dictionary stores
// once) costs once, a MEMO distinct per row (another kilobyte) costs a
// kilobyte a row, and a NUM whose kilobyte of text differs per row but always
// parses to the FLOAT 1 costs nothing: only a STRING's text outlives the load.
func TestReadCSVDoesNotPinTheInput(t *testing.T) {
	const n = 2000
	var in strings.Builder
	in.WriteString("NAME,NOTE,MEMO,NUM\n")
	note, memo, num := strings.Repeat("x", 1<<10), strings.Repeat("y", 1<<10-5), "1."+strings.Repeat("0", 1<<10-7)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "name%05d,%s,%05d%s,%s%05d\n", i, note, i, memo, num, i)
	}
	body := in.String() // live across both readings, so it cancels out
	distinct := n*(len("name00000")+1<<10) + len(note)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tab, err := ReadCSV("x", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if kept := int(int64(m1.HeapAlloc) - int64(m0.HeapAlloc)); kept > distinct+(len(body)-distinct)/2 {
		t.Errorf("%d rows of %d distinct bytes in %d bytes of lines keep %d bytes live: the fields pin their lines", n, distinct, len(body), kept)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(body)
}
