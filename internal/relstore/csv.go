package relstore

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// ReadCSV loads a table from CSV. The first record is the header and becomes
// the schema (all attributes untyped; a leading byte order mark is dropped,
// empty and case-insensitively repeated names are errors); field values are
// inferred with types.Parse. name becomes the table name.
// The result is what NewTable plus one Insert per record would build, built
// column-direct: each column interns its fields by raw text as they stream
// by (one Parse per distinct text) and heads the lineage later edits patch;
// the table comes back with its snapshot pinned on those columns.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	bom, err := br.Peek(3)
	if err != nil && err != io.EOF { // bufio reports a read error once: report it here
		return nil, fmt.Errorf("relstore: read csv header: %w", err)
	}
	if string(bom) == "\xef\xbb\xbf" {
		_, _ = br.Discard(3) // cannot fail: the bytes are buffered
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	header, err := cr.Read() // its own slice: records are reused only from here on
	if err != nil {
		return nil, fmt.Errorf("relstore: read csv header: %w", err)
	}
	first := make(map[string]int, len(header))
	for j, h := range header {
		if h == "" {
			return nil, fmt.Errorf("relstore: csv header: column %d has no name", j+1)
		}
		if i, dup := first[strings.ToLower(h)]; dup {
			return nil, fmt.Errorf("relstore: csv header: column %d (%q) repeats column %d (%q)", j+1, h, i+1, header[i])
		}
		first[strings.ToLower(h)] = j
	}
	cr.ReuseRecord = true
	cols := make([]*Column, len(header))
	// memo[j]: column j's raw texts that parse to anything but a STRING, to
	// their codes. A STRING's payload is its raw text, so find is its memo.
	memo := make([]map[string]uint32, len(header))
	for j := range cols {
		cols[j], memo[j] = newColumn(0), map[string]uint32{}
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: read csv: %w", err)
		}
		line++
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relstore: csv line %d: %d fields, want %d", line, len(rec), len(header))
		}
		for j, f := range rec {
			c := cols[j]
			code, seen := c.find(types.NewString(f))
			if !seen {
				code, seen = memo[j][f]
			}
			if seen {
				c.retain(code)
			} else {
				f = strings.Clone(f) // out of the reader's per-record line, which nothing kept may pin
				v := types.Parse(f)
				if code = c.acquire(v); v.Kind() != types.KindString {
					memo[j][f] = code
				}
			}
			c.codes = append(c.codes, code)
		}
	}
	return tableFromColumns(schema.New(name, header...), cols), nil
}

// WriteCSV writes the table (header + live rows in insertion order) as CSV.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().AttrNames()); err != nil {
		return fmt.Errorf("relstore: write csv header: %w", err)
	}
	var werr error
	rec := make([]string, t.Schema().Arity()) // csv.Writer.Write does not retain it
	t.Snapshot().Scan(func(id TupleID, row Tuple) bool {
		for i, v := range row {
			rec[i] = v.CoerceString()
		}
		if err := cw.Write(rec); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return fmt.Errorf("relstore: write csv: %w", werr)
	}
	cw.Flush()
	return cw.Error()
}
