package relstore

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// ReadCSV loads a table from CSV. The first record is the header and becomes
// the schema (all attributes untyped; a leading byte order mark is dropped,
// empty and case-insensitively repeated names are errors); field values are
// inferred with types.Parse. name becomes the table name.
// The result is what NewTable plus one Insert per record would build, built
// in one pass from the buffered body to columns that head the lineage later
// edits patch; each distinct text is parsed and copied once. The body is
// read whole first (see readBody).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	buf, err := readBody(r)
	if err != nil {
		return nil, fmt.Errorf("relstore: read csv: %w", err)
	}
	body := bytes.TrimPrefix(buf, []byte("\xef\xbb\xbf"))
	tk := tokenizer{rest: body}
	if tk.next() != nil {
		return nil, csvError(body)
	}
	names, header := string(tk.buf), make([]string, len(tk.ends)-1)
	first := make(map[string]int, len(header))
	for j := range header {
		h := names[tk.ends[j]:tk.ends[j+1]]
		if h == "" {
			return nil, fmt.Errorf("relstore: csv header: column %d has no name", j+1)
		}
		if i, dup := first[strings.ToLower(h)]; dup {
			return nil, fmt.Errorf("relstore: csv header: column %d (%q) repeats column %d (%q)", j+1, h, i+1, header[i])
		}
		header[j], first[strings.ToLower(h)] = h, j
	}
	// Blank lines hold no record, so n, the lines that are not blank, bounds
	// the rows; columns are sized once the first block's bytes per record show
	// what the rest of the body can hold.
	rest, n := tk.rest, 0
	for lines := (tokenizer{rest: rest}); len(lines.rest) > 0; {
		if text, _ := lines.line(); len(text) > 0 {
			n++
		}
	}
	cols := make([]*Column, len(header))
	for j := range cols {
		cols[j] = newColumn(min(n, presizeAfter+1))
	}
	var keep, load arena
	for rec := 0; ; rec++ {
		if err := tk.next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, csvError(body)
		}
		if len(tk.ends)-1 != len(cols) {
			return nil, fmt.Errorf("relstore: csv line %d: %d fields, want %d", rec+2, len(tk.ends)-1, len(cols))
		}
		if rec == presizeAfter {
			est := (rec + 1) * len(rest) / (len(rest) - len(tk.rest))
			rows := min(n, est+est/4)
			for _, c := range cols {
				if c.codes = slices.Grow(c.codes, rows-len(c.codes)); len(c.dict) == presizeAfter {
					c.presize(rows)
				}
			}
		}
		for j, c := range cols {
			c.ingest(tk.buf[tk.ends[j]:tk.ends[j+1]], &keep, &load)
		}
	}
	for _, c := range cols { // edits look STRING payloads up in byStr: other kinds' raw texts go, and load with them
		k := len(c.in.byStr)
		if maps.DeleteFunc(c.in.byStr, func(_ string, code uint32) bool { return c.dict[code].Kind() != types.KindString }); len(c.in.byStr) < k {
			c.in.byStr = maps.Clone(c.in.byStr) // not the room of the texts that went
		}
	}
	return tableFromColumns(schema.New(name, header...), cols), nil
}

// readBody reads r whole. A reader with a Len method (a bytes.Reader, a
// Sized) ends in a buffer of that length n, reserved in steps n/16^k from the
// largest of at most 64 KiB, each taken once the last is full: a reader that
// yields less than it declares (a client that stalls or lies) holds at most
// 64 KiB or 16 times what it sent, and one that yields all pays at most a
// fifteenth more in the steps it outgrew. Any other reader doubles its buffer.
func readBody(r io.Reader) ([]byte, error) {
	n, shift := 0, 0
	if l, ok := r.(interface{ Len() int }); ok {
		n = max(l.Len(), 0)
	}
	for n>>shift > 64<<10 {
		shift += 4
	}
	buf := make([]byte, 0, n>>shift+bytes.MinRead) // with MinRead spare, the last step meets EOF without growing
	for {
		if len(buf) == cap(buf) {
			shift = max(shift-4, 0)
			buf = append(make([]byte, 0, max(n>>shift, 2*len(buf))+bytes.MinRead), buf...)
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+m]; err == io.EOF {
			return buf, nil
		} else if err != nil {
			return nil, err
		}
	}
}

// Sized declares the N bytes a reader holds, as a request's Content-Length or
// a file's size does, so ReadCSV reads it into a buffer of that size. N only
// sizes the buffer: the body is whatever Reader yields.
type Sized struct {
	io.Reader
	N int
}

// Len is the declared length.
func (s Sized) Len() int { return s.N }

// csvError reads body with encoding/csv up to the record the tokenizer
// rejected, so the error is encoding/csv's, word for word.
func csvError(body []byte) error {
	cr := csv.NewReader(bytes.NewReader(body))
	cr.FieldsPerRecord = -1
	if _, err := cr.Read(); err != nil {
		return fmt.Errorf("relstore: read csv header: %w", err)
	}
	for {
		if _, err := cr.Read(); err != nil {
			return fmt.Errorf("relstore: read csv: %w", err)
		}
	}
}

// tokenizer splits a CSV body into records in place, as encoding/csv's Reader
// does with FieldsPerRecord -1: blank lines are skipped, CRLF reads as LF and
// a '\r' ending the body is dropped. Field j is buf[ends[j]:ends[j+1]].
type tokenizer struct {
	rest, buf []byte
	ends      []int
}

// line cuts the next line off rest; nl reports that a '\n' ended it.
func (t *tokenizer) line() (text []byte, nl bool) {
	text, t.rest, nl = bytes.Cut(t.rest, []byte{'\n'})
	return bytes.TrimSuffix(text, []byte{'\r'}), nl
}

// next reads the next record into buf: io.EOF at the end of the body,
// csv.ErrQuote where encoding/csv would fail.
func (t *tokenizer) next() error {
	text, nl := []byte(nil), false
	for len(text) == 0 {
		if len(t.rest) == 0 {
			return io.EOF
		}
		text, nl = t.line()
	}
	t.buf, t.ends = t.buf[:0], append(t.ends[:0], 0)
	for {
		if len(text) == 0 || text[0] != '"' {
			field, _, _ := bytes.Cut(text, []byte{','})
			if bytes.IndexByte(field, '"') >= 0 {
				return csv.ErrQuote
			}
			t.buf, text = append(t.buf, field...), text[len(field):]
		} else {
			for text = text[1:]; ; {
				field, after, closed := bytes.Cut(text, []byte{'"'})
				if t.buf = append(t.buf, field...); !closed { // the field runs on past the line
					if !nl || len(t.rest) == 0 {
						return csv.ErrQuote
					}
					if len(t.buf) == cap(t.buf) { // a field of many lines doubles its buffer, not append's quarter
						t.buf = slices.Grow(t.buf, len(t.buf))
					}
					t.buf = append(t.buf, '\n')
					text, nl = t.line()
				} else if text = after; len(text) > 0 && text[0] == '"' {
					t.buf, text = append(t.buf, '"'), text[1:]
				} else {
					break
				}
			}
		}
		if t.ends = append(t.ends, len(t.buf)); len(text) == 0 {
			return nil
		} else if text[0] != ',' {
			return csv.ErrQuote
		}
		text = text[1:]
	}
}

// presizeAfter distinct values in as many records make a column a key: room for
// n rows and a quarter more spares the first edits' novel values a full copy.
const presizeAfter = 1024

func (c *Column) presize(n int) {
	n += n / 4
	c.dict, c.eq = slices.Grow(c.dict, n-len(c.dict)), slices.Grow(c.eq, n-len(c.eq))
	c.counts, c.clsCounts = slices.Grow(c.counts, n-len(c.counts)), slices.Grow(c.clsCounts, n-len(c.clsCounts))
	byStr := make(map[string]uint32, n)
	maps.Copy(byStr, c.in.byStr)
	c.in.byStr = byStr
}

// ingest appends a field's code. While loading, in.byStr maps each raw text to
// its code whatever its kind (types.Parse fixes a text's kind, so no two kinds
// share a key), and a STRING, being its text, goes straight to addEntry. Only
// a STRING's text outlives the load: a text that may parse to another kind (a
// short one, as TRUE is, or one led by a number's first byte) is copied to
// the load's arena first, and again to the kept one if it is a STRING after all.
func (c *Column) ingest(text []byte, keep, load *arena) {
	code, seen := c.in.byStr[string(text)]
	if !seen {
		a := keep
		if len(text) <= len("false") || strings.IndexByte("0123456789+-.iInN", text[0]) >= 0 {
			a = load
		}
		s := a.copy(text)
		if v := types.Parse(s); v.Kind() != types.KindString {
			if code, seen = c.find(v); !seen {
				code = c.addEntry(v)
			}
			c.in.byStr[s] = code
		} else if a == load {
			code = c.addEntry(types.NewString(keep.copy(text)))
		} else {
			code = c.addEntry(v)
		}
	}
	c.retain(code)
	c.codes = append(c.codes, code)
}

// arena copies a load's distinct texts into shared chunks, doubling up to
// arenaChunk bytes: a string it returns keeps its chunk alive, never the body.
type arena struct{ strings.Builder }

const arenaChunk = 32 << 10

func (a *arena) copy(text []byte) string {
	if a.Cap()-a.Len() < len(text) {
		size := max(len(text), min(2*a.Cap(), arenaChunk))
		a.Builder = strings.Builder{}
		a.Grow(size)
	}
	start := a.Len()
	a.Write(text)
	return a.String()[start:]
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
