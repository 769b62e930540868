package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const specFile = "../BENCHMARK.json"

// A quick run must print exactly the metrics BENCHMARK.json promises, with its
// units, finite, and with every response right.
func TestQuickRunMatchesContract(t *testing.T) {
	bs, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bs.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bs.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(bs.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bs.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bs.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bs.Workloads[i].Name, sp.name)
		}
		for _, c := range []struct {
			traced bool
			want   map[string]string
		}{{false, endToEnd}, {true, perLayer}} {
			res, err := measure(sp, 1, time.Second, c.traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, c.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d requests failed", sp.name, c.traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(c.want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", sp.name, c.traced, len(res.Metrics), len(c.want))
			}
			for name, unit := range c.want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", sp.name, c.traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", sp.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", sp.name, name, m.Value)
				case !c.traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", sp.name, name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: span file: %v", sp.name, err)
		}
	}
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	for _, sp := range specs {
		sp, tuples := sp.sized(true)
		a := generate(sp, tuples, 7, 6).hash
		if b := generate(sp, tuples, 7, 6).hash; a != b {
			t.Errorf("%s: seed 7 generated two different request streams", sp.name)
		}
		if c := generate(sp, tuples, 8, 6).hash; a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", sp.name)
		}
	}
}

func TestSelfTimeIsSpanLessChildren(t *testing.T) {
	msec := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "server.detect", Start: 0, End: msec(10)},
		{ID: 2, Parent: 1, Name: "core.detect", Start: msec(10), End: msec(18)},
		{ID: 3, Parent: 2, Name: "relstore.snapshot", Start: msec(18), End: msec(19)},
		{ID: 4, Parent: 2, Name: "detect.columnar", Start: msec(19), End: msec(24)},
		{ID: 5, Name: "detect.factorised", Extra: true, Start: msec(24), End: msec(27)},
	}
	want := []float64{2, 2, 1, 5, 3}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %s: self %v ms, want %v", spans[i].Name, got[i], want[i])
		}
	}
	total := 0.0
	for i, s := range spans {
		if !s.Extra {
			total += got[i]
		}
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("ladder self times sum to %v ms, the handler's span is 10", total)
	}
}

func TestBillTakesMedianOverKeptRounds(t *testing.T) {
	b := bill{}
	b.add("x", -1, 100)
	for r, v := range []float64{50, 50, 50, 1, 3, 2} { // rounds 0-2 are warm-up
		b.add("x", r, v)
	}
	if got := b.value("x", 6); got != 2 {
		t.Errorf("value = %v, want the median 2 of the kept rounds", got)
	}
	b.add("setup-only", -1, 7)
	if got := b.value("setup-only", 6); got != 7 {
		t.Errorf("value = %v, want the set-up sum 7", got)
	}
}

func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, func() { c.run() }); n != 0 {
		t.Errorf("kernel allocates %v times a run", n)
	}
}

func TestFieldReadsTopLevelMembersOnly(t *testing.T) {
	body := []byte(`{"dirty":3,"perCFD":{"phi1":{"dirty":9,"s":"a\"}"}},"table":"dirty","tuples":20,"vio":{"1":2}}` + "\n")
	for key, want := range map[string]string{
		"dirty": "3", "tuples": "20", "table": `"dirty"`, "vio": `{"1":2}`,
		"perCFD": `{"phi1":{"dirty":9,"s":"a\"}"}}`,
	} {
		if got, ok := field(body, key); !ok || string(got) != want {
			t.Errorf("field %s = %q (%v), want %q", key, got, ok, want)
		}
	}
	if _, ok := field(body, "phi1"); ok {
		t.Error("field found a nested member")
	}
}

func TestSpreadUsesPythonQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reads ...string) string {
		var b strings.Builder
		for _, v := range reads {
			b.WriteString(`{"workload":"reload-clean","trace":0,"metrics":{"read_p50_ms":{"value":` + v + `,"unit":"ms"},"rounds_per_s":{"value":` + v + `,"unit":"1/s"}}}` + "\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", "100", "101", "99", "100")
	for _, c := range []struct {
		name string
		vals []string
		code int
		want []string
	}{
		{"same", []string{"100", "102", "98", "101"}, 0, []string{"read_p50_ms", "ok"}},
		// Higher latency is worse; the same rise in a rate is not.
		{"slower", []string{"150", "151", "149", "150"}, 1, []string{"worse", "rounds_per_s"}},
		{"noisy", []string{"60", "100", "140", "180"}, 0, []string{"unresolved"}},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, specFile, base, write(c.name, c.vals...))
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", c.name, w, out.String())
			}
		}
	}
}
