// Columnar snapshots: an immutable, column-oriented view of a Table with
// per-attribute interned dictionaries. They are the system of record — a
// row is decoded from them on demand — and the hot read paths (detection
// group-builds, SQL-engine scans) walk the codes directly, because
//
//   - a column's values are interned once into a dense dictionary, so a
//     tuple's grouping key is a fixed-width vector of uint32 codes instead
//     of a length-prefixed string rebuilt per tuple per CFD;
//   - equality against a constant (a CFD pattern cell, a WHERE literal)
//     is one integer comparison after a single dictionary probe;
//   - the snapshot is versioned off Table.version, so every reader of an
//     unchanged table shares one materialization.
//
// Two code spaces per column. Exact codes intern by (kind, payload)
// identity, so Value(Code(i)) round-trips the stored value bit-for-bit and
// scans built from the snapshot are indistinguishable from row scans.
// Equal-class codes (EqCode) canonicalize across the value model's
// cross-kind numeric equality — INT 1 and FLOAT 1.0 are Equal and must
// land in one group — mirroring exactly the classes types.Value.Key()
// induces. Grouping and predicate pushdown use Equal-class codes;
// materialization uses exact codes.
//
// Codes are opaque, stable handles. A value keeps its code along its
// column's lineage — the chain of columns the delta patcher (patch.go)
// derives from one batch build — whether or not any row still carries it:
// a code whose count reaches 0 is dead (every lookup treats it as absent),
// the value coming back revives it, a novel value takes the next code. So
// numbering records edit history and must stay unobservable: nothing may
// order, emit or compare by code value, and codes mean nothing across
// lineages or tables — layers comparing keys across snapshots (the
// incremental tracker, cross-table joins) keep using the AppendGroupKey
// encoding or a translation table.
package relstore

import (
	"math"
	"sync"
	"sync/atomic"

	"semandaq/internal/lockcheck"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// interner is the value -> exact code lookup of one column lineage. It only
// grows, and only at the lineage's newest column: the batch build fills it
// before publishing, each patch adds its novel values under mu. Older
// columns keep reading it (from any number of request goroutines, hence the
// RWMutex); a hit at or past their own dictionary length is a miss to them.
// A column has one in-place successor, so one writer at a time; a second
// derivation from the same column heads a lineage of its own with a copy of
// what that column can see (fork).
type interner struct {
	mu    lockcheck.RWMutex[interner]
	byInt map[int64]uint32  // KindInt
	byFlt map[uint64]uint32 // KindFloat, keyed by Float64bits so -0.0
	// and 0.0 (and distinct NaN payloads) keep distinct exact codes
	byStr map[string]uint32 // KindString
	// byNumClass maps an integral-number class — keyed by the int64 that
	// Key() would render, so INT payloads and integral FLOATs share a slot,
	// exactly the "d<n>" key class — to its canonical code.
	byNumClass map[int64]uint32
}

// Column is one attribute's vector in a columnar snapshot: a dense code per
// row plus the dictionary the codes index. A Column is immutable once its
// snapshot is built and safe for concurrent use; its one in-place successor
// in the lineage appends to the shared dict/eq/keys arrays past this
// column's lengths, which this column — and any fork of it — never reads.
type Column struct {
	codes []uint32      // per row: exact dictionary code
	dict  []types.Value // exact code -> value, dead codes included
	eq    []uint32      // exact code -> canonical Equal-class code
	// counts[c] is how many rows carry exact code c, live how many codes
	// have a non-zero count, clsCounts[q] how many rows carry any code of
	// the Equal-class with canonical code q: the canonical can be dead
	// while a class-mate lives (INT 1 gone, FLOAT 1.0 still stored).
	counts    []int32
	clsCounts []int32
	live      int
	// keys materializes dict[code].Key() lazily (keysOnce): only columns
	// serving as a variable CFD's RHS ever need it, and skipping it at
	// build time saves one string allocation per distinct value on
	// high-cardinality columns.
	keysOnce sync.Once
	keys     []string
	// probe is the column's per-row Equal-class probe vector (pli.go),
	// built lazily and shared by every reader of this snapshot. Partitions
	// are not kept here: each run builds the classes it reads (EqClasses).
	probeOnce sync.Once
	probe     []uint32
	// The ready flags mirror the sync.Once states above: each is set (with
	// release semantics) after its lazy artifact is built, so the delta
	// patcher can ask "did anyone build this on the previous version?"
	// without racing concurrent builders — a nil answer just means the
	// patched column leaves that artifact lazy too.
	keysReady  atomic.Bool
	probeReady atomic.Bool
	// Interner state, retained so EqCodeOf stays O(1) after the build.
	// Strings, bools, NULL and NaN are their own Equal-classes; only the
	// numeric kinds collapse across each other. The maps are the lineage's,
	// the four singleton codes this column's own.
	in       *interner
	nullCode int64 // exact code of NULL, -1 if never stored
	trueCode int64 // exact code of TRUE, -1 if never stored
	flsCode  int64 // exact code of FALSE, -1 if never stored
	nanCode  int64 // canonical Equal-class code of NaN, -1 if never stored
}

// fork returns a copy of the lookups a column with n dictionary entries can
// see: entries at or past n are its successors', and an entry below n never
// changes once made.
func (in *interner) fork(n int) *interner {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return &interner{
		byInt:      codesBelow(in.byInt, n),
		byFlt:      codesBelow(in.byFlt, n),
		byStr:      codesBelow(in.byStr, n),
		byNumClass: codesBelow(in.byNumClass, n),
	}
}

func codesBelow[K comparable](m map[K]uint32, n int) map[K]uint32 {
	out := make(map[K]uint32, min(len(m), n))
	for k, code := range m {
		if int(code) < n {
			out[k] = code
		}
	}
	return out
}

// newColumn returns an empty column with n rows of capacity, heading a new
// lineage.
func newColumn(n int) *Column {
	return &Column{
		codes: make([]uint32, 0, n),
		in: &interner{
			byInt:      map[int64]uint32{},
			byFlt:      map[uint64]uint32{},
			byStr:      map[string]uint32{},
			byNumClass: map[int64]uint32{},
		},
		nullCode: -1,
		trueCode: -1,
		flsCode:  -1,
		nanCode:  -1,
	}
}

// numClass reports whether v belongs to an integral-number Equal class and
// which, mirroring the check types.Value.Key() performs: INT n and an
// integral FLOAT n share the "d<n>" key class.
func numClass(v types.Value) (int64, bool) {
	switch v.Kind() {
	case types.KindInt:
		return v.Int(), true
	case types.KindFloat:
		return types.IntOf(v.Float())
	}
	return 0, false
}

func isNaN(v types.Value) bool { return v.Kind() == types.KindFloat && math.IsNaN(v.Float()) }

// acquire counts one more row carrying v and returns v's exact code,
// growing the dictionary when the lineage has never seen v. Only the
// lineage's newest, unpublished column may call it; a patched one holds
// in.mu for writing.
func (c *Column) acquire(v types.Value) uint32 {
	code, ok := c.find(v)
	if !ok {
		code = c.addEntry(v)
	}
	c.retain(code)
	return code
}

// retain counts one more row carrying code: release's inverse.
func (c *Column) retain(code uint32) {
	if c.counts[code]++; c.counts[code] == 1 {
		c.live++
	}
	c.clsCounts[c.eq[code]]++
}

// release counts one row fewer carrying code. The dictionary entry stays:
// a count of 0 is what "dead" means.
func (c *Column) release(code uint32) {
	if c.counts[code]--; c.counts[code] == 0 {
		c.live--
	}
	c.clsCounts[c.eq[code]]--
}

// find looks v's exact code up, dead or alive: ok is false when the lineage
// has never stored v's exact (kind, payload) identity, even if an Equal
// value exists. The caller holds in.mu or owns the unpublished lineage; on
// a column with a successor the result can lie past len(dict).
func (c *Column) find(v types.Value) (uint32, bool) {
	switch v.Kind() {
	case types.KindNull:
		return uint32(c.nullCode), c.nullCode >= 0
	case types.KindBool:
		if v.Bool() {
			return uint32(c.trueCode), c.trueCode >= 0
		}
		return uint32(c.flsCode), c.flsCode >= 0
	case types.KindInt:
		code, ok := c.in.byInt[v.Int()]
		return code, ok
	case types.KindFloat:
		code, ok := c.in.byFlt[math.Float64bits(v.Float())]
		return code, ok
	case types.KindString:
		code, ok := c.in.byStr[v.Str()]
		return code, ok
	}
	return 0, false
}

// addEntry registers a new dictionary entry and returns its code.
func (c *Column) addEntry(v types.Value) uint32 {
	code := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.counts = append(c.counts, 0)
	c.clsCounts = append(c.clsCounts, 0)
	switch v.Kind() {
	case types.KindNull:
		c.nullCode = int64(code)
	case types.KindBool:
		if v.Bool() {
			c.trueCode = int64(code)
		} else {
			c.flsCode = int64(code)
		}
	case types.KindInt:
		c.in.byInt[v.Int()] = code
	case types.KindFloat:
		c.in.byFlt[math.Float64bits(v.Float())] = code
	case types.KindString:
		c.in.byStr[v.Str()] = code
	}
	// Canonical Equal-class code: entries are their own class except
	// integral numbers and NaNs (all Equal, whatever their payload bits),
	// where the first member interned stays the canonical for good.
	canon := code
	if k, ok := numClass(v); ok {
		if first, seen := c.in.byNumClass[k]; seen {
			canon = first
		} else {
			c.in.byNumClass[k] = code
		}
	} else if isNaN(v) {
		if c.nanCode < 0 {
			c.nanCode = int64(code)
		}
		canon = uint32(c.nanCode)
	}
	c.eq = append(c.eq, canon)
	return code
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.codes) }

// Card returns the number of distinct exact values the column stores: the
// statistic planners read, a function of the rows alone.
func (c *Column) Card() int { return c.live }

// CodeSpace returns the size of the exact code space, dead codes included:
// what code-indexed tables are sized by. It depends on edit history and is
// not a statistic.
func (c *Column) CodeSpace() int { return len(c.dict) }

// Code returns row i's exact dictionary code.
func (c *Column) Code(i int) uint32 { return c.codes[i] }

// EqCode returns row i's Equal-class code: two rows have the same EqCode
// iff their values are Equal under the types.Value model.
func (c *Column) EqCode(i int) uint32 { return c.eq[c.codes[i]] }

// EqOf maps an exact code to its Equal-class code.
func (c *Column) EqOf(code uint32) uint32 { return c.eq[code] }

// Value returns the dictionary value for an exact code.
func (c *Column) Value(code uint32) types.Value { return c.dict[code] }

// EnsureKeys materializes the per-code Key() table; callers that will sit
// in a loop over KeyOf should invoke it once up front.
func (c *Column) EnsureKeys() {
	c.keysOnce.Do(func() {
		keys := make([]string, len(c.dict))
		for i, v := range c.dict {
			keys[i] = v.Key()
		}
		c.keys = keys
		c.keysReady.Store(true)
	})
}

// KeyOf returns the precomputed Key() string for an exact code. Codes in
// one Equal-class share the key's content, so the result can stand in for
// row-value Key() calls in grouping maps.
func (c *Column) KeyOf(code uint32) string {
	c.EnsureKeys()
	return c.keys[code]
}

// EqCodeOf resolves an arbitrary value (a pattern constant, a WHERE
// literal) to its Equal-class code in this column, reporting whether any
// stored value Equals it. A false report means no row of the column can
// ever compare equal to v.
func (c *Column) EqCodeOf(v types.Value) (canon uint32, ok bool) {
	c.in.mu.RLock()
	if k, num := numClass(v); num {
		canon, ok = c.in.byNumClass[k]
	} else if isNaN(v) {
		canon, ok = uint32(c.nanCode), c.nanCode >= 0
	} else {
		canon, ok = c.find(v) // every other value is a class of its own
	}
	c.in.mu.RUnlock()
	if !ok || int(canon) >= len(c.dict) || c.clsCounts[canon] == 0 {
		return 0, false
	}
	return canon, true
}

// NullCode returns the Equal-class (= exact) code of NULL and whether the
// column contains any NULLs.
func (c *Column) NullCode() (uint32, bool) {
	if c.nullCode < 0 || c.counts[c.nullCode] == 0 {
		return 0, false
	}
	return uint32(c.nullCode), true
}

// Columnar is a Snapshot's data: the live tuples in insertion order,
// decomposed into per-attribute Columns — the only copy there is. It is
// immutable and shared by every reader of the same table version; all
// methods are safe for concurrent use.
type Columnar struct {
	schema  *schema.Relation
	version int64
	ids     []TupleID
	cols    []*Column
	// borrowed, when non-nil, marks the columns that belong to another
	// table's lineage (Table.Clone): a patch that touches one forks it
	// instead of growing it in place.
	borrowed []bool
}

// Schema returns the snapshot's relation schema.
func (c *Columnar) Schema() *schema.Relation { return c.schema }

// Version returns the table version the snapshot was built from.
func (c *Columnar) Version() int64 { return c.version }

// Len returns the number of rows.
func (c *Columnar) Len() int { return len(c.ids) }

// IDs returns the tuple IDs in insertion order. The slice is the snapshot's
// backing storage: callers must not mutate it.
func (c *Columnar) IDs() []TupleID { return c.ids }

// Col returns the column at schema position pos.
func (c *Columnar) Col(pos int) *Column { return c.cols[pos] }

// NumCols returns the number of columns (the schema arity).
func (c *Columnar) NumCols() int { return len(c.cols) }

// Row materializes row i as a fresh Tuple, bit-identical to the stored row
// (exact codes round-trip the original values).
func (c *Columnar) Row(i int) Tuple { return c.appendRow(make(Tuple, 0, len(c.cols)), i) }

// appendRow appends row i's decoded cells to dst. Scan passes the same
// empty buffer for every row, so each decodes into one array. Every row
// decode goes through here.
func (c *Columnar) appendRow(dst []types.Value, i int) []types.Value {
	if decodeHook != nil {
		decodeHook()
	}
	for _, col := range c.cols {
		dst = append(dst, col.cell(i))
	}
	return dst
}

// decodeHook, when set, is called once per decoded row: tests only
// (export_test.go), to show that a read path decodes none.
var decodeHook func()

// cell decodes row i's value.
func (c *Column) cell(i int) types.Value { return c.dict[c.codes[i]] }
