// Package types defines the value model shared by every layer of Semandaq:
// the relational store, the SQL engine, the CFD formalism and the repair
// cost model all operate on Value.
//
// A Value is a small tagged union over the SQL-ish scalar types the paper's
// customer relation needs (strings, integers, floats, booleans) plus NULL.
// Values are immutable; all operations return new values.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull sorts before every other kind;
// comparisons across the numeric kinds coerce to float64.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar. The zero Value is NULL. A FLOAT keeps its
// bits in i, so a Value is 32 bytes and == is exact identity: the kind and
// the payload bit for bit (-0 and 0 differ, a NaN is itself). Equal compares
// values (1 and 1.0, -0 and 0, any two NaNs are Equal).
type Value struct {
	kind Kind
	i    int64  // KindInt, KindBool (0/1), KindFloat (math.Float64bits)
	s    string // KindString
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// f is a FLOAT's payload.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if v is not an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload, coercing INT. Panics on other kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Str returns the string payload. It panics if v is not a STRING.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if v is not a BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// String renders the value for display. NULL renders as "NULL"; strings are
// rendered bare (use SQLString for quoted form).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// SQLString renders the value as a SQL literal (strings single-quoted with
// embedded quotes doubled).
func (v Value) SQLString() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Equal reports whether two values are equal. NULL equals only NULL
// (this is the store-level identity notion, not SQL ternary logic; the SQL
// engine layers three-valued logic on top). INT and FLOAT compare
// numerically across kinds.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare orders two values: -1, 0, +1. The total order is
// NULL < BOOL < numbers < STRING across kinds, with numeric kinds compared
// by value, exactly: an INT and a FLOAT compare as two ints when the float
// is integral and within int64 range (IntOf), never through float64, which
// would round an INT past 2^53 onto its float neighbours and make Equal
// intransitive. So Equal is exactly the equivalence Key() encodes.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpInt64(v.i, o.i)
	case KindInt:
		if o.kind == KindInt {
			return cmpInt64(v.i, o.i)
		}
		return cmpIntFloat(v.i, o.f())
	case KindFloat:
		if o.kind == KindInt {
			return -cmpIntFloat(o.i, v.f())
		}
		return cmpFloat64(v.f(), o.f())
	case KindString:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// IntOf reports whether f is an integral number within int64 range, and
// which int64 it is: the floats Key() renders like INTs ("d<n>"), so that
// 1 and 1.0 group together, and Compare orders as ints. -0.0 is 0; NaN and
// ±Inf are not integral.
func IntOf(f float64) (int64, bool) {
	if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// cmpIntFloat orders an INT against a FLOAT without rounding either: NaN
// sorts before every number, a float past int64's range beyond every int,
// and a non-integral float in range between its floor and the next int.
func cmpIntFloat(i int64, f float64) int {
	if n, ok := IntOf(f); ok {
		return cmpInt64(i, n)
	}
	switch {
	case math.IsNaN(f), f < -(1 << 63):
		return 1
	case f >= 1<<63, i <= int64(math.Floor(f)):
		return -1
	default:
		return 1
	}
}

// rank groups kinds into comparison classes: numbers share a class.
func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat64 orders floats totally: NaN sorts before every number and all
// NaNs compare equal. Without the explicit NaN arm, a NaN would compare
// "equal" to every float (both < and > are false), making Equal fail to be
// an equivalence relation and contradicting Key(), which gives NaN its own
// class — the grouping layers require Equal and Key to induce the same
// partition.
func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return -1
	default:
		return 1
	}
}

// Key returns a compact string that is equal for equal values and distinct
// for distinct values; it is used as a map key by indexes, group-by and the
// violation bookkeeping. The leading tag byte keeps kinds from colliding
// (numbers share a tag so 1 == 1.0 keys identically).
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindBool:
		if v.i != 0 {
			return "bt"
		}
		return "bf"
	case KindInt:
		return "d" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		f := v.f()
		if n, ok := IntOf(f); ok {
			// Key integral floats like ints so 1 and 1.0 group together.
			return "d" + strconv.FormatInt(n, 10)
		}
		return "f" + strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	default:
		return "?"
	}
}

// AppendGroupKey appends v's Key() to dst in length-prefixed form,
// "len:key". Composite grouping keys — detection groups, the tracker's
// classes, the explorer's majorities, the SQL engine's grouping sink —
// concatenate several value keys; the length prefix keeps a byte sequence
// inside one key from aliasing the boundary between values, which a plain
// separator byte cannot guarantee. Every layer building a multi-value key
// must use this one encoding: some of the keys are compared across
// packages. Consumers build keys into a scratch buffer and look maps up via
// string(buf), which Go compiles to an allocation-free lookup.
func (v Value) AppendGroupKey(dst []byte) []byte {
	// Emit Key()'s bytes without materializing the string: a stack scratch
	// holds the short numeric/tag keys, and string payloads are appended
	// straight from the value. The bytes must stay those of the
	// length-prefixed Key() — tests diff the two.
	var scratch [32]byte
	var k []byte
	switch v.kind {
	case KindNull:
		k = append(scratch[:0], 'n')
	case KindBool:
		if v.i != 0 {
			k = append(scratch[:0], 'b', 't')
		} else {
			k = append(scratch[:0], 'b', 'f')
		}
	case KindInt:
		k = strconv.AppendInt(append(scratch[:0], 'd'), v.i, 10)
	case KindFloat:
		if n, ok := IntOf(v.f()); ok {
			k = strconv.AppendInt(append(scratch[:0], 'd'), n, 10)
		} else {
			k = strconv.AppendFloat(append(scratch[:0], 'f'), v.f(), 'g', -1, 64)
		}
	case KindString:
		dst = strconv.AppendInt(dst, int64(len(v.s))+1, 10)
		dst = append(dst, ':', 's')
		return append(dst, v.s...)
	default:
		k = append(scratch[:0], '?')
	}
	dst = strconv.AppendInt(dst, int64(len(k)), 10)
	dst = append(dst, ':')
	return append(dst, k...)
}

// Parse converts a raw text field (e.g. from CSV) into a Value, inferring
// the kind: empty → NULL, integer syntax → INT, float syntax → FLOAT,
// TRUE/FALSE → BOOL, otherwise STRING.
func Parse(raw string) Value {
	if raw == "" {
		return Null
	}
	// strconv fails with a heap-allocated *NumError, so it only sees text that
	// may be numeric: a digit, sign, '.', or the i/n of inf and nan comes
	// first, and no byte lies outside every numeric grammar.
	switch raw[0] {
	case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '+', '-', '.', 'i', 'I', 'n', 'N':
		if !numericBytes(raw) {
			break
		}
		if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
			return NewInt(i)
		}
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return NewFloat(f)
		}
	}
	switch {
	case strings.EqualFold(raw, "TRUE"):
		return NewBool(true)
	case strings.EqualFold(raw, "FALSE"):
		return NewBool(false)
	}
	return NewString(raw)
}

// numericBytes reports whether every byte of raw occurs in the union of
// strconv's numeric grammars: digits and hex digits, "+-._xXpP", and the
// letters of inf, infinity and nan. Text with any other byte ("136 Oak
// Ave") is a number to neither ParseInt nor ParseFloat.
func numericBytes(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch c := raw[i] | 0x20; { // ASCII lower case; no other byte maps into these ranges
		case '0' <= raw[i] && raw[i] <= '9', 'a' <= c && c <= 'f':
		case c == 'x', c == 'p', c == 'i', c == 'n', c == 't', c == 'y':
		case raw[i] == '+', raw[i] == '-', raw[i] == '.', raw[i] == '_':
		default:
			return false
		}
	}
	return true
}

// CoerceString renders any value as the string the CFD layer pattern-matches
// against. NULL coerces to the empty string.
func (v Value) CoerceString() string {
	if v.kind == KindNull {
		return ""
	}
	return v.String()
}
