package types

import (
	"math"
	"math/big"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(3.5).Float(); got != 3.5 {
		t.Errorf("Float() = %v, want 3.5", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str() = %q, want abc", got)
	}
	if !NewBool(true).Bool() {
		t.Error("Bool() = false, want true")
	}
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{NewBool(false), KindBool},
		{NewInt(1), KindInt},
		{NewFloat(1), KindFloat},
		{NewString(""), KindString},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Int on string", func() { NewString("x").Int() }},
		{"Str on int", func() { NewInt(1).Str() }},
		{"Bool on null", func() { Null.Bool() }},
		{"Float on string", func() { NewString("x").Float() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.f()
		})
	}
}

func TestFloatCoercesInt(t *testing.T) {
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("NewInt(7).Float() = %v, want 7", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSQLString(t *testing.T) {
	if got := NewString("O'Brien").SQLString(); got != "'O''Brien'" {
		t.Errorf("SQLString = %q", got)
	}
	if got := NewInt(5).SQLString(); got != "5" {
		t.Errorf("SQLString = %q", got)
	}
	if got := Null.SQLString(); got != "NULL" {
		t.Errorf("SQLString = %q", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// Ascending sequence across kinds.
	seq := []Value{
		Null,
		NewBool(false), NewBool(true),
		NewInt(-5), NewFloat(-1.5), NewInt(0), NewFloat(0.5), NewInt(1), NewInt(10),
		NewString(""), NewString("a"), NewString("b"),
	}
	for i := range seq {
		for j := range seq {
			got := seq[i].Compare(seq[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", seq[i], seq[j], got, want)
			}
		}
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
	if NewInt(3).Equal(NewFloat(3.1)) {
		t.Error("3 should not equal 3.1")
	}
	if NewInt(3).Key() != NewFloat(3).Key() {
		t.Error("3 and 3.0 should share a Key")
	}
}

func TestKeyDistinctness(t *testing.T) {
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(1), NewInt(2), NewFloat(1.5),
		NewString("1"), NewString("TRUE"), NewString(""), NewString("n"),
	}
	keys := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := keys[k]; ok {
			t.Errorf("Key collision between %v and %v: %q", prev, v, k)
		}
		keys[k] = v
	}
}

// TestAppendGroupKeyMatchesWriteGroupKey pins the group-key encoder to
// the length-prefixed Key() it defines, "len:key", value by value and
// composed: AppendGroupKey emits those bytes without building Key(), and
// any drift would silently split (or merge) groups across layers that
// share the composite-key encoding.
func TestAppendGroupKeyMatchesWriteGroupKey(t *testing.T) {
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-7), NewInt(1<<62 + 3),
		NewFloat(1.0), NewFloat(-2.0), NewFloat(1.5),
		NewFloat(-1.7976931348623157e+308), NewFloat(0.1),
		NewString(""), NewString("x"), NewString("12:ab"),
		NewString("with\x00nul"), NewString("EH2 4SD"),
	}
	prefixed := func(v Value) string {
		k := v.Key()
		return strconv.Itoa(len(k)) + ":" + k
	}
	var composite string
	var app []byte
	for _, v := range vals {
		if got, want := string(v.AppendGroupKey(nil)), prefixed(v); got != want {
			t.Errorf("%v: AppendGroupKey = %q, want %q", v, got, want)
		}
		composite += prefixed(v)
		app = v.AppendGroupKey(app)
	}
	if string(app) != composite {
		t.Errorf("composite: AppendGroupKey = %q, want %q", app, composite)
	}
}

// TestGroupKeyProperty pins the composite key's injectivity: two pairs of
// strings have equal concatenated group keys iff the pairs are equal, so no
// byte sequence inside one value can alias the boundary between values.
func TestGroupKeyProperty(t *testing.T) {
	key := func(a, b string) string {
		return string(NewString(b).AppendGroupKey(NewString(a).AppendGroupKey(nil)))
	}
	f := func(a1, a2, b1, b2 string) bool {
		return (key(a1, a2) == key(b1, b2)) == (a1 == b1 && a2 == b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		raw  string
		want Value
	}{
		{"", Null},
		{"42", NewInt(42)},
		{"-7", NewInt(-7)},
		{"3.25", NewFloat(3.25)},
		{"true", NewBool(true)},
		{"FALSE", NewBool(false)},
		{"hello", NewString("hello")},
		{"EH2 4SD", NewString("EH2 4SD")},
	}
	for _, c := range cases {
		if got := Parse(c.raw); !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)",
				c.raw, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestCoerceString(t *testing.T) {
	if got := Null.CoerceString(); got != "" {
		t.Errorf("NULL coerces to %q, want empty", got)
	}
	if got := NewInt(9).CoerceString(); got != "9" {
		t.Errorf("got %q", got)
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Reflexivity of Equal for strings.
	g := func(s string) bool { return NewString(s).Equal(NewString(s)) }
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Key equality iff Equal, for mixed ints/strings.
	h := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return (va.Key() == vb.Key()) == va.Equal(vb)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareNaN pins the NaN arm of the float comparison: without it,
// NaN compared "equal" to every number (both < and > are false), so Equal
// was not an equivalence relation and disagreed with the partition Key()
// induces — the columnar dictionary and the row-path grouping would then
// split NaN rows differently.
func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if nan.Compare(NewFloat(5)) == 0 || nan.Equal(NewInt(5)) {
		t.Error("NaN must not compare equal to a number")
	}
	if nan.Compare(NewFloat(math.NaN())) != 0 {
		t.Error("NaN must compare equal to NaN")
	}
	if got, want := nan.Compare(NewFloat(-1e300)), -1; got != want {
		t.Errorf("NaN vs -1e300 = %d, want %d (NaN sorts before numbers)", got, want)
	}
	if got, want := NewInt(0).Compare(nan), 1; got != want {
		t.Errorf("0 vs NaN = %d, want %d", got, want)
	}
	// Key agrees: NaN is its own class.
	if nan.Key() == NewFloat(5).Key() {
		t.Error("NaN Key must differ from a number's Key")
	}
}

// TestValueLayout holds the value's size: every dictionary, row and report
// is a slice of Values. A FLOAT's bits share the INT payload's word.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatIdentity round-trips the floats whose bits a shared word could
// lose: each comes back from NewFloat bit for bit, == on Values is that
// identity (-0 is not 0, a NaN is itself and no other payload), and Key,
// Compare and String read the float, not the word.
func TestFloatIdentity(t *testing.T) {
	nan := math.Float64frombits(0xfff8_0000_0000_beef) // a NaN with a payload and the sign bit set
	cases := []struct {
		f         float64
		key, text string
	}{
		{math.Copysign(0, -1), "d0", "-0"},
		{math.Inf(1), "f+Inf", "+Inf"},
		{math.Inf(-1), "f-Inf", "-Inf"},
		{nan, "fNaN", "NaN"},
		{math.Float64frombits(1), "f5e-324", "5e-324"}, // the smallest subnormal
	}
	for _, c := range cases {
		v := NewFloat(c.f)
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(c.f) {
			t.Errorf("NewFloat(%#x).Float() = %#x", math.Float64bits(c.f), math.Float64bits(v.Float()))
		}
		if v != NewFloat(c.f) || v.Key() != c.key || v.String() != c.text || v.Compare(NewFloat(c.f)) != 0 {
			t.Errorf("%s: Key %q String %q, want %q %q", c.text, v.Key(), v.String(), c.key, c.text)
		}
	}
	zero, negZero := NewFloat(0), NewFloat(math.Copysign(0, -1))
	if zero == negZero || !zero.Equal(negZero) || zero.Key() != negZero.Key() {
		t.Error("-0 and 0: want distinct Values that are Equal and share a Key")
	}
	if other := NewFloat(math.NaN()); other == NewFloat(nan) || !other.Equal(NewFloat(nan)) || NewFloat(nan).Compare(NewFloat(math.Inf(-1))) != -1 {
		t.Error("NaN payloads: want distinct Values that are Equal and sort before -Inf")
	}
	if sub := NewFloat(math.Float64frombits(1)); sub.Compare(zero) != 1 || sub.Compare(NewInt(1)) != -1 || NewFloat(math.Inf(1)).Compare(NewInt(math.MaxInt64)) != 1 {
		t.Error("subnormal and +Inf: want 0 < subnormal < 1 and +Inf above every INT")
	}
}

// TestCompareIntFloatExactly: an INT and a FLOAT compare exactly, not
// through float64, so Equal holds iff Key() agrees at the edges where
// float64 rounds an int: ±2^53 (INT 2^53+1 used to Equal FLOAT 2^53 while
// keying apart, making Equal intransitive through INT 2^53), ±2^63 (the
// ends of int64's range, where only -2^63 is an integral float in range),
// −0 and the infinities.
func TestCompareIntFloatExactly(t *testing.T) {
	const p53, p63 = 1 << 53, 1 << 63
	cases := []struct {
		i    int64
		f    float64
		want int // Compare(INT i, FLOAT f)
	}{
		{p53, p53, 0},
		{p53 + 1, p53, 1},
		{p53 - 1, p53, -1},
		{-p53 - 1, -p53, -1},
		{-p53, -p53, 0},
		{math.MaxInt64, p63, -1}, // 2^63 is one past int64's range
		{math.MinInt64, -p63, 0},
		{math.MinInt64 + 1, -p63, 1},
		{math.MinInt64, -p63 * 2, 1},
		{0, math.Copysign(0, -1), 0},
		{1, math.Copysign(0, -1), 1},
		{-1, 0.5, -1},
		{0, 0.5, -1},
		{1, 0.5, 1},
		{-1, -0.5, -1},
		{0, -0.5, 1},
		{math.MaxInt64, math.Inf(1), -1},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MinInt64, math.NaN(), 1},
	}
	for _, c := range cases {
		iv, fv := NewInt(c.i), NewFloat(c.f)
		if got := iv.Compare(fv); got != c.want {
			t.Errorf("Compare(INT %d, FLOAT %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		if got := fv.Compare(iv); got != -c.want {
			t.Errorf("Compare(FLOAT %v, INT %d) = %d, want %d", c.f, c.i, got, -c.want)
		}
		if keyEq := iv.Key() == fv.Key(); keyEq != (c.want == 0) {
			t.Errorf("INT %d and FLOAT %v: Key equal %v, Equal %v", c.i, c.f, keyEq, c.want == 0)
		}
	}
	// The keys at the edges, and IntOf's answer on them.
	keys := []struct {
		f   float64
		key string
	}{
		{p53, "d9007199254740992"},
		{-p53, "d-9007199254740992"},
		{-p63, "d-9223372036854775808"},
		{p63, "f9.223372036854776e+18"},
		{math.Copysign(0, -1), "d0"},
	}
	for _, c := range keys {
		if got := NewFloat(c.f).Key(); got != c.key {
			t.Errorf("Key(FLOAT %v) = %q, want %q", c.f, got, c.key)
		}
		if _, ok := IntOf(c.f); ok != (c.key[0] == 'd') {
			t.Errorf("IntOf(%v) reports %v", c.f, ok)
		}
	}
	// Transitivity through INT 2^53: FLOAT 2^53 is Equal to it, INT 2^53+1
	// to neither.
	a, b, c := NewInt(p53+1), NewFloat(p53), NewInt(p53)
	if a.Equal(b) || !b.Equal(c) || a.Equal(c) {
		t.Errorf("Equal over INT 2^53+1, FLOAT 2^53, INT 2^53: %v %v %v", a.Equal(b), b.Equal(c), a.Equal(c))
	}
}

// TestCompareKeyAgreeProperty: an INT near the float64 rounding boundary
// against the FLOAT of a neighbour compares as math/big orders the two
// exactly, and Equal holds iff the keys agree.
func TestCompareKeyAgreeProperty(t *testing.T) {
	f := func(n int64, shift uint8, d int8) bool {
		n >>= shift % 64
		fl := float64(n + int64(d))
		a, b := NewInt(n), NewFloat(fl)
		want := new(big.Float).SetInt64(n).Cmp(big.NewFloat(fl))
		return a.Compare(b) == want && b.Compare(a) == -want && (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
