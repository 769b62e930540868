package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// levenshtein is the classic edit distance (insert, delete, substitute) on
// bytes: the reference DamerauLevenshtein is bounded by below.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[i] = min3(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"london", "londom", 1},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"ab", "ba", 1},     // transposition
		{"abcd", "acbd", 1}, // inner transposition
		{"ca", "abc", 3},    // restricted DL classic case
		{"kitten", "sitting", 3},
		{"edinburgh", "edinbrugh", 1},
		{"x", "", 1},
		{"", "xy", 2},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DL(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// damerauLevenshteinRef is DamerauLevenshtein's body before its rows moved
// to one stack buffer, kept as its reference: three heap rows per call.
func damerauLevenshteinRef(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	d2 := make([]int, lb+1)
	d1 := make([]int, lb+1)
	d0 := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		d1[j] = j
	}
	for i := 1; i <= la; i++ {
		d0[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d0[j] = min3(d1[j]+1, d0[j-1]+1, d1[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := d2[j-2] + 1; t < d0[j] {
					d0[j] = t
				}
			}
		}
		d2, d1, d0 = d1, d0, d2
	}
	return d1[lb]
}

// TestDamerauLevenshteinMatchesReference runs both bodies over random
// strings on a small alphabet (so transpositions and repeats are common)
// across the stack buffer's 64-byte edge.
func TestDamerauLevenshteinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		b := make([]byte, rng.Intn(80))
		for i := range b {
			b[i] = "abcd"[rng.Intn(4)]
		}
		return string(b)
	}
	for range 3000 {
		a, b := str(), str()
		if got, want := DamerauLevenshtein(a, b), damerauLevenshteinRef(a, b); got != want {
			t.Fatalf("DL(%q,%q) = %d, reference %d", a, b, got, want)
		}
	}
}

func TestDamerauLevenshteinAllocatesNothingOnShortStrings(t *testing.T) {
	a := "Flat 12, 1024 Mayfield Road, Edinburgh X"
	b := "Flat 21, 1024 Mayfeild Raod, Edinburgh Y"
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("fixture lengths %d/%d, want 40", len(a), len(b))
	}
	if allocs := testing.AllocsPerRun(100, func() { DamerauLevenshtein(a, b) }); allocs != 0 {
		t.Errorf("DamerauLevenshtein made %.0f allocations for two 40-byte strings, want 0", allocs)
	}
}

func TestDistanceNormalization(t *testing.T) {
	if d := Distance(NewString("abc"), NewString("abc")); d != 0 {
		t.Errorf("identical distance = %v", d)
	}
	if d := Distance(NewString("abc"), NewString("xyz")); d != 1 {
		t.Errorf("disjoint distance = %v, want 1", d)
	}
	if d := Distance(Null, Null); d != 0 {
		t.Errorf("null-null distance = %v", d)
	}
	if d := Distance(Null, NewString("abcd")); d != 1 {
		t.Errorf("null-string distance = %v, want 1", d)
	}
	d := Distance(NewString("london"), NewString("londom"))
	if d <= 0 || d >= 1 {
		t.Errorf("near-miss distance = %v, want in (0,1)", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry.
	sym := func(a, b string) bool {
		return Distance(NewString(a), NewString(b)) == Distance(NewString(b), NewString(a))
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	// Bounds [0,1].
	bounds := func(a, b string) bool {
		d := Distance(NewString(a), NewString(b))
		return d >= 0 && d <= 1
	}
	if err := quick.Check(bounds, nil); err != nil {
		t.Error(err)
	}
	// Identity of indiscernibles (one direction): d(a,a) == 0.
	ident := func(a string) bool { return Distance(NewString(a), NewString(a)) == 0 }
	if err := quick.Check(ident, nil); err != nil {
		t.Error(err)
	}
	// DL never exceeds Levenshtein.
	dl := func(a, b string) bool {
		if len(a) > 64 || len(b) > 64 {
			return true
		}
		return DamerauLevenshtein(a, b) <= levenshtein(a, b)
	}
	if err := quick.Check(dl, nil); err != nil {
		t.Error(err)
	}
}
