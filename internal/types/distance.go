package types

// This file implements the string-distance machinery behind the repair cost
// model of Cong et al. (VLDB 2007): the cost of changing a cell from v to v'
// is w(t, A) * dist(v, v') / max(|v|, |v'|), where dist is the
// Damerau–Levenshtein edit distance.

// DamerauLevenshtein returns the restricted Damerau–Levenshtein distance
// (edit distance with adjacent transposition) between a and b.
func DamerauLevenshtein(a, b string) int {
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
	// Three rolling rows: two-back, previous, current, carved from one
	// buffer that stays on the stack for the short values repair prices.
	var stack [3 * 64]int
	buf := stack[:]
	if lb >= 64 {
		buf = make([]int, 3*(lb+1))
	}
	d2, d1, d0 := buf[:lb+1], buf[lb+1:2*(lb+1)], buf[2*(lb+1):3*(lb+1)]
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

// Distance returns the normalized edit distance in [0,1] between two values
// rendered as strings: DL(a,b) / max(|a|,|b|). Equal values cost 0; changing
// to or from NULL (empty string) costs 1 unless both are empty.
func Distance(a, b Value) float64 {
	as, bs := a.CoerceString(), b.CoerceString()
	if as == bs {
		return 0
	}
	m := len(as)
	if len(bs) > m {
		m = len(bs)
	}
	if m == 0 {
		return 0
	}
	return float64(DamerauLevenshtein(as, bs)) / float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
