package types

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseRef is Parse's body as it stood before the first-byte gate and the
// fold compare, kept verbatim as the oracle: Parse must return the same kind
// and the same exact payload on every input.
func parseRef(raw string) Value {
	if raw == "" {
		return Null
	}
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return NewFloat(f)
	}
	switch strings.ToUpper(raw) {
	case "TRUE":
		return NewBool(true)
	case "FALSE":
		return NewBool(false)
	}
	return NewString(raw)
}

// parseCorners are the inputs where the gate or the fold could plausibly
// part ways with the reference.
var parseCorners = []string{
	"", " ", "0", "01", "+1", "-0", "1.0", "1e0", "0.0", "-0.0", ".5", "-.5", "+.5e1", "1.", ".", "+", "-",
	"1_000", "0x1p-2", "0X1P-2", "0x10", "0b1", "1e400", "-1e400", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "inf", "Inf", "+Inf", "-inf", "Infinity", "infinity", "INFINITY",
	"infinit", "nan", "NaN", "NAN", "+nan", "-nan", "nano", "in", "i", "n", "N", "I", "no", "India", "North St",
	"true", "TRUE", "True", "tRuE", "false", "FALSE", "False", "falſe", "FALſE", "trúe", "true ", " true", "truee",
	"t", "f", "yes", "\xff", "tru\xff", "\xfftrue", "ＴＲＵＥ", "ｔｒｕｅ", "Mayfield Rd", "UK", "EH4 8LE", "1 2", "1,5", "١٢٣",
	"e5", "E5", "1e", "1e+", "0x", "0x.p1", "--1", "+-1", "1-", "12abc", "\x001",
}

func TestParseMatchesReference(t *testing.T) {
	for _, raw := range parseCorners {
		if got, want := Parse(raw), parseRef(raw); got != want {
			t.Errorf("Parse(%q) = %v (%v), reference %v (%v)", raw, got, got.Kind(), want, want.Kind())
		}
	}
	// The corners ISSUE 19 names, spelled out so a change of strconv's would
	// show here rather than pass silently on both sides.
	for raw, want := range map[string]Value{
		"1_000":    NewFloat(1000),
		"0x1p-2":   NewFloat(0.25),
		"Infinity": NewFloat(math.Inf(1)),
		"falſe":    NewBool(false),
		"01":       NewInt(1),
		"+1":       NewInt(1),
		"-0":       NewInt(0),
		"1e0":      NewFloat(1),
		"North St": NewString("North St"),
	} {
		if got := Parse(raw); got != want {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", raw, got, got.Kind(), want, want.Kind())
		}
	}
	if got := Parse("nan"); got.Kind() != KindFloat || !math.IsNaN(got.Float()) {
		t.Errorf("Parse(nan) = %v (%v), want FLOAT NaN", got, got.Kind())
	}
}

// TestParseGateIsExact: the bytes the gate admits are the only ones an
// accepted ParseInt(…, 10, 64) or ParseFloat input can start with — or hold
// anywhere after that.
func TestParseGateIsExact(t *testing.T) {
	tails := []string{"", "1", "1.5", "nf", "nfinity", "an", "x1p-2", ".5", "e5", "_1"}
	heads := []string{"1", "0x1", "1.", "in", "-", "1e", "0", "+In"}
	for b := 0; b < 256; b++ {
		for _, tail := range tails {
			for _, head := range append(heads, "") {
				raw := head + string([]byte{byte(b)}) + tail
				if got, want := Parse(raw), parseRef(raw); got != want {
					t.Errorf("Parse(%q) = %v (%v), reference %v (%v)", raw, got, got.Kind(), want, want.Kind())
				}
			}
		}
	}
}

func TestParseTextAllocatesNothing(t *testing.T) {
	for _, raw := range []string{"Mayfield Rd", "UK", "EH4 8LE", "true", "False", "44", "136 Oak Ave", "1-800 FLOWERS"} {
		var sink Value
		if n := testing.AllocsPerRun(100, func() { sink = Parse(raw) }); n != 0 {
			t.Errorf("Parse(%q) allocates %v times per call, want 0", raw, n)
		}
		_ = sink
	}
}

// FuzzParse holds Parse to the reference on arbitrary bytes: same kind, same
// exact payload, no panic.
func FuzzParse(f *testing.F) {
	for _, raw := range parseCorners {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := Parse(raw), parseRef(raw); got != want {
			t.Fatalf("Parse(%q) = %v (%v), reference %v (%v)", raw, got, got.Kind(), want, want.Kind())
		}
	})
}
