// Command benchmark is the repository's end-to-end benchmark: it drives
// server.New(core.New()).Handler() in-process with request bytes generated
// from a seed, checks every response, and reports end-to-end metrics
// (-trace 0) or the per-layer bill of a traced pass (-trace 1) for one
// workload. README.md holds the metric and workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec is one workload: a data regime and the round driven at it. Why each
// was chosen is in BENCHMARK.json and README.md.
type spec struct {
	name      string
	tuples    int
	noise     float64  // datagen cell noise: 5 % makes every tuple dirty
	typoShare float64  // street typos injected by the generator itself
	reload    bool     // write bundle = full CSV reload
	edits     int      // write bundle = this many row edits
	steward   *steward // write bundle = one monitor update batch
	engine    string   // detect engine of the read bundle; "" = server default (SQL)
}

var specs = []*spec{
	{name: "reload-clean", tuples: 20000, reload: true, engine: "columnar"},
	{name: "redetect-dense", tuples: 20000, noise: 0.05, edits: 64, engine: "columnar"},
	{name: "sqldetect-sparse", tuples: 20000, typoShare: 0.005, edits: 64, engine: ""},
	{name: "steward-cycle", tuples: 10000, steward: &steward{typos: 96, flips: 32, moves: 8}, engine: "columnar"},
}

// quickTuples sizes every workload of a -quick run.
const quickTuples = 2000

func (sp *spec) sized(quick bool) (*spec, int) {
	if !quick {
		return sp, sp.tuples
	}
	q := *sp
	if q.steward != nil {
		q.steward = &steward{typos: 9, flips: 3, moves: 1}
	}
	return &q, quickTuples
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the driver's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with the run's arguments, one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 40, "measured seconds per workload, split over the passes")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics over four passes; 1: per-layer metrics of one traced pass")
		quick    = flag.Bool("quick", false, "one short pass on small tables: a smoke run, not a measurement")
		out      = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: base, then new")
		specPath = flag.String("spec", "../BENCHMARK.json", "the benchmark's contract, where -compare finds the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json new.json")
		}
		code, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		os.Exit(code)
	}

	var run []*spec
	for _, sp := range specs {
		if *workload == "all" || *workload == sp.name {
			run = append(run, sp)
		}
	}
	if len(run) == 0 {
		fatal("unknown workload %q", *workload)
	}
	// One processor: on the two-vCPU sandbox a second one makes the same work
	// slower and its clocks twice as noisy (README, clock discipline).
	runtime.GOMAXPROCS(1)

	ok := true
	for _, sp := range run {
		res, err := measure(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *quick)
		if err != nil {
			fatal("%s: %v", sp.name, err)
		}
		ok = ok && res.Correct
		printTable(sp, res)
		if *out != "" {
			if err := appendRecord(*out, record{sp.name, *seed, *seconds, *trace, *res}); err != nil {
				fatal("%v", err)
			}
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// passes is how many fresh sessions an end-to-end run measures.
const passes = 4

// measure runs one workload. End-to-end metrics combine four passes, each a
// fresh session over fresh data; the per-layer bill comes from one untraced
// pass (the yardstick for tracing overhead) and one traced pass.
func measure(sp *spec, seed int64, total time.Duration, traced, quick bool) (*result, error) {
	sp, tuples := sp.sized(quick)
	cal := newCalibrator()
	n, window, tracedWindow := passes, total/passes, total-total/passes
	if traced {
		n = 1
	}
	if quick {
		n, window, tracedWindow = 1, time.Second/2, time.Second/2
	}
	res := &result{Metrics: map[string]metric{}}
	var ps []*pass
	for i := 0; i < n; i++ {
		p := runPass(sp, tuples, passSeed(seed, i), window, cal)
		ps = append(ps, p)
		res.add(&p.check)
		fmt.Fprintf(os.Stderr, "%s pass %d: %d rounds kept, %d of them quiet; kernel level %.3f ms, third quartile %.3f (nominal %.1f); set-up %.3f s; live heap %.2f MB\n",
			sp.name, i, len(p.rounds), len(p.quiet()), p.level, p.calP75, calNominalMs, p.setupRaw, float64(p.liveHeap)/1e6)
	}
	if !traced {
		endToEnd(res.Metrics, ps)
	} else {
		tp, err := runTraced(sp, tuples, passSeed(seed, n), tracedWindow, cal)
		if err != nil {
			return nil, err
		}
		res.add(&tp.check)
		perLayer(res.Metrics, ps[0], tp)
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// passSeed gives every pass of a run its own data.
func passSeed(seed int64, pass int) int64 { return seed*8 + int64(pass) }

func (r *result) add(c *checker) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "benchmark: wrong response:", e)
	}
}

// endToEndUnits names every end-to-end metric with its unit; BENCHMARK.json
// lists the same, and bench_test.go holds the two together.
var endToEndUnits = [][2]string{
	{"setup_s", "s"}, {"read_p50_ms", "ms"}, {"write_p50_ms", "ms"},
	{"rounds_per_s", "1/s"}, {"cpu_ms_per_round", "ms"}, {"allocs_per_round", "count"},
	{"alloc_mb_per_round", "MB"}, {"live_heap_mb", "MB"}, {"resp_kb_per_round", "kB"},
}

// passBand is how far above the run's best pass a pass's quiet level may be
// for its clocks to count: a pass slower than that was disturbed throughout.
const passBand = 1.05

// undisturbed returns the passes whose kernel ran at the run's best level.
func undisturbed(ps []*pass) []*pass {
	best := ps[0].level
	for _, p := range ps {
		best = min(best, p.level)
	}
	var out []*pass
	for _, p := range ps {
		if p.level <= passBand*best {
			out = append(out, p)
		}
	}
	return out
}

func over(ps []*pass, f func(p *pass) float64) float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	return median(vs)
}

// endToEnd reduces the passes to the metrics a user of the server would see.
// Clocks are taken over the quiet rounds of the undisturbed passes and scaled
// to the builder's machine; counts and set-up come from every pass. A value
// is the median over the passes of the per-pass statistic.
func endToEnd(out map[string]metric, ps []*pass) {
	clock := func(stat func([]float64) float64, f func(*sample) float64) float64 {
		return over(undisturbed(ps), func(p *pass) float64 { return stat(column(p.quiet(), f)) * p.factor() })
	}
	kept := func(p *pass) float64 { return float64(len(p.rounds)) }
	vals := map[string]float64{
		"setup_s":            over(ps, func(p *pass) float64 { return p.setupRaw * scale(median(p.setupCal)) }),
		"read_p50_ms":        clock(median, func(s *sample) float64 { return s.read }),
		"write_p50_ms":       clock(median, func(s *sample) float64 { return s.write }),
		"rounds_per_s":       1e3 / clock(mean, (*sample).clocks),
		"cpu_ms_per_round":   clock(mean, func(s *sample) float64 { return s.cpu }),
		"allocs_per_round":   over(ps, func(p *pass) float64 { return float64(p.mallocs) / kept(p) }),
		"alloc_mb_per_round": over(ps, func(p *pass) float64 { return float64(p.allocBytes) / 1e6 / kept(p) }),
		"live_heap_mb":       over(ps, func(p *pass) float64 { return float64(p.liveHeap) / 1e6 }),
		"resp_kb_per_round":  over(ps, func(p *pass) float64 { return float64(p.respBytes) / 1e3 / kept(p) }),
	}
	for _, nu := range endToEndUnits {
		out[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func printTable(sp *spec, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: %d requests, %d failed\n", sp.name, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
