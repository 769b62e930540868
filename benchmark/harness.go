package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"semandaq/internal/core"
	"semandaq/internal/server"
)

// warmup is how many rounds at the start of a pass are run but not kept.
const warmup = 3

// calSetup is how many kernel runs bracket a pass's set-up on each side.
const calSetup = 15

// recorder is the in-process client's end of a response: it keeps the bytes
// so that the round can check them once its clocks have stopped.
type recorder struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Flush()              {}
func (r *recorder) Write(p []byte) (int, error) {
	r.buf = append(r.buf, p...)
	return len(p), nil
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.status = http.StatusOK
	r.buf = r.buf[:0]
}

// field returns the raw bytes of a top-level member of a JSON object, without
// decoding the rest: a dense detect response is 0.6 MB of vio(t) entries the
// check has no use for.
func field(body []byte, key string) ([]byte, bool) {
	depth, i := 0, 0
	str := func() int { // i at the opening quote; returns index past the closing one
		for j := i + 1; j < len(body); j++ {
			switch body[j] {
			case '\\':
				j++
			case '"':
				return j + 1
			}
		}
		return len(body)
	}
	for i < len(body) {
		switch c := body[i]; {
		case c == '{' || c == '[':
			depth++
			i++
		case c == '}' || c == ']':
			depth--
			i++
		case c == '"':
			end := str()
			if depth == 1 && end < len(body) && body[end] == ':' && string(body[i+1:end-1]) == key {
				start := end + 1
				i = start
				for i < len(body) {
					switch c := body[i]; {
					case c == '"':
						i = str()
						continue
					case c == '{' || c == '[':
						depth++
					case c == '}' || c == ']':
						depth--
					}
					if depth == 0 || (depth == 1 && body[i] == ',') {
						return bytes.TrimSpace(body[start:i]), true
					}
					i++
				}
				return nil, false
			}
			i = end
		default:
			i++
		}
	}
	return nil, false
}

func intField(body []byte, key string) (int64, bool) {
	raw, ok := field(body, key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	return n, err == nil
}

// checker counts requests and the ones whose response was wrong.
type checker struct {
	attempted, failed int
	version           int64
	errs              []string // the first few, for the operator
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check holds one response to its request's expectations: status 200, the
// expected counts, and a table version that never goes back.
func (c *checker) check(req *request, rec *recorder) {
	c.attempted++
	if rec.status != http.StatusOK {
		c.fail("%s %s: status %d: %s", req.method, req.target, rec.status, bytes.TrimSpace(rec.buf))
		return
	}
	if req.kind == kLoadCSV {
		c.version = 0 // a reload replaces the table and its version counter
	}
	if v, ok := intField(rec.buf, "version"); ok {
		if v < c.version || (v == c.version && (req.kind == kEdit || req.kind == kUpdates)) {
			c.fail("%s %s: version %d after %d", req.method, req.target, v, c.version)
			return
		}
		c.version = v
	}
	for _, f := range []struct {
		key  string
		want int
	}{{"tuples", req.want.tuples}, {"dirty", req.want.dirty}, {"applied", req.want.applied}} {
		if f.want < 0 {
			continue
		}
		if got, ok := intField(rec.buf, f.key); !ok || got != int64(f.want) {
			c.fail("%s %s: %s = %d (present %v), want %d", req.method, req.target, f.key, got, ok, f.want)
			return
		}
	}
	if req.want.clean {
		if got, ok := intField(rec.buf, "violations"); !ok || got != 0 {
			c.fail("%s %s: %d violations on clean data", req.method, req.target, got)
		}
	}
	if req.kind == kRepair {
		if raw, _ := field(rec.buf, "converged"); string(raw) != "true" {
			c.fail("%s %s: repair did not converge", req.method, req.target)
		}
	}
}

func (c *checker) checkAll(reqs []request, recs []recorder) {
	for i := range reqs {
		c.check(&reqs[i], &recs[i])
	}
}

// crossCheck requires the four engines' set-up detections to agree.
func (c *checker) crossCheck(reqs []request, recs []recorder) {
	var first *recorder
	for i := range reqs {
		if reqs[i].kind != kDetect {
			continue
		}
		if first == nil {
			first = &recs[i]
			continue
		}
		for _, key := range []string{"violations", "dirty", "perCFD"} {
			a, _ := field(first.buf, key)
			b, ok := field(recs[i].buf, key)
			if !ok || !bytes.Equal(a, b) {
				c.fail("engines disagree on %s: %s vs %s (%s)", key, a, b, reqs[i].target)
			}
		}
	}
}

// client delivers requests to the handler in-process, one at a time.
type client struct {
	h    http.Handler
	recs []recorder // one per request of the longest bundle, reused every round
}

func newClient() *client {
	return &client{h: server.New(core.New()).Handler()}
}

func (c *client) slots(n int) []recorder {
	for len(c.recs) < n {
		c.recs = append(c.recs, recorder{})
	}
	return c.recs[:n]
}

// send serves one request into rec and returns how long the handler took.
func (c *client) send(req *request, rec *recorder) time.Duration {
	r := httptest.NewRequest(req.method, req.target, bytes.NewReader(req.body))
	rec.reset()
	start := time.Now()
	c.h.ServeHTTP(rec, r)
	return time.Since(start)
}

// bundle serves the requests back to back and returns their summed latency.
func (c *client) bundle(reqs []request, recs []recorder) time.Duration {
	var total time.Duration
	for i := range reqs {
		total += c.send(&reqs[i], &recs[i])
	}
	return total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// sample is one kept round: raw clocks in ms, and the kernel run on either
// side of it.
type sample struct {
	write, read, other, cpu float64
	calBefore, calAfter     float64
}

func (s *sample) clocks() float64 { return s.write + s.read + s.other }

// pass is what one fresh session measured.
type pass struct {
	setupRaw            float64   // s
	setupCal            []float64 // the kernel runs on both sides of set-up, ms
	level, calP75       float64   // the kernel's quiet level and third quartile over the whole pass, ms
	rounds              []sample  // kept rounds
	mallocs, allocBytes uint64
	liveHeap            uint64
	respBytes           int64
	gcCycles            uint32
	gcPauseMs, gcCPUMs  float64
	drift               int // cells that differ from the generator's model
	check               checker
}

const (
	// quietLevel is the quantile of a pass's kernel times taken as the
	// machine's undisturbed speed during the pass.
	quietLevel = 0.25
	// quietBand is how far above that level the kernel runs on both sides of
	// a round may be for the round to count as undisturbed.
	quietBand = 1.05
	// quietMin is how many undisturbed rounds a pass needs for its statistics
	// to rest on them alone.
	quietMin = 8
)

// quiet returns the rounds measured while the machine ran at the pass's quiet
// level. The sandbox slows down for seconds at a time, and program time does
// not slow in proportion to the kernel's, so scaling a disturbed round is a
// worse estimate than leaving it out. A pass disturbed throughout keeps
// every round and is scaled as a whole.
func (p *pass) quiet() []sample {
	var q []sample
	for _, s := range p.rounds {
		if max(s.calBefore, s.calAfter) <= quietBand*p.level {
			q = append(q, s)
		}
	}
	if len(q) < quietMin {
		return p.rounds
	}
	return q
}

// factor scales a clock of the pass's rounds to the builder's machine.
func (p *pass) factor() float64 { return scale(p.level) }

func column(ss []sample, f func(*sample) float64) []float64 {
	vs := make([]float64, len(ss))
	for i := range ss {
		vs[i] = f(&ss[i])
	}
	return vs
}

func mean(vs []float64) float64 { return sum(vs) / float64(len(vs)) }

// runPass generates a script, sets a fresh session up and drives rounds at it
// until the window closes.
func runPass(sp *spec, tuples int, seed int64, window time.Duration, cal *calibrator) *pass {
	sc := generate(sp, tuples, seed, maxRounds(window))
	p := &pass{}
	// Two collections: what the previous pass left in sync.Pools (a 2 MB JSON
	// buffer from its table read-back) survives one in the victim cache, and
	// would count as the harness's own if the baseline were taken then.
	runtime.GC()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	for i := 0; i < calSetup; i++ {
		p.setupCal = append(p.setupCal, cal.run())
	}
	start := time.Now()
	c := newClient()
	recs := make([]recorder, len(sc.setup))
	c.bundle(sc.setup, recs)
	p.setupRaw = time.Since(start).Seconds()
	for i := 0; i < calSetup; i++ {
		p.setupCal = append(p.setupCal, cal.run())
	}
	p.check.checkAll(sc.setup, recs)
	p.check.crossCheck(sc.setup, recs)

	var m0, m1 runtime.MemStats
	var gc0 float64
	allCal := append([]float64(nil), p.setupCal...)
	deadline := time.Now().Add(window)
	done := 0
	for ; done < len(sc.rounds); done++ {
		if done > warmup && time.Now().After(deadline) {
			break
		}
		if done == warmup {
			runtime.ReadMemStats(&m0)
			gc0 = gcCPUSeconds()
		}
		r := &sc.rounds[done]
		recs := c.slots(len(r.write) + len(r.read) + len(r.cleanse))
		wr, rd, cl := recs[:len(r.write)], recs[len(r.write):len(r.write)+len(r.read)], recs[len(r.write)+len(r.read):]
		// A forced, untimed GC after every bundle: each bundle starts from a
		// settled heap, so whether a collection falls into the read or the
		// write does not depend on where the previous bundle left the pacer.
		s := sample{calBefore: allCal[len(allCal)-1]}
		cpu0 := cpuTime()
		s.write = ms(c.bundle(r.write, wr))
		runtime.GC()
		s.read = ms(c.bundle(r.read, rd))
		runtime.GC()
		if len(r.cleanse) > 0 {
			s.other = ms(c.bundle(r.cleanse, cl))
			runtime.GC()
		}
		s.cpu = ms(cpuTime() - cpu0)
		s.calAfter = cal.run()
		allCal = append(allCal, s.calAfter)
		if done >= warmup {
			p.rounds = append(p.rounds, s)
			for i := range recs {
				p.respBytes += int64(len(recs[i].buf))
			}
		}
		p.check.checkAll(r.write, wr)
		p.check.checkAll(r.read, rd)
		p.check.checkAll(r.cleanse, cl)
	}
	runtime.ReadMemStats(&m1)
	p.level, p.calP75 = quantile(allCal, quietLevel), quantile(allCal, 0.75)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.liveHeap = m1.HeapAlloc - min(base.HeapAlloc, m1.HeapAlloc)
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	p.gcCPUMs = (gcCPUSeconds() - gc0) * 1e3

	var cells int
	p.drift, cells = drift(c, sc, done, &p.check)
	if p.drift*1000 > cells {
		p.check.fail("%d of %d cells differ from the generator's model after %d rounds", p.drift, cells, done)
	}
	return p
}

// maxRounds bounds how many rounds are generated for a window: a round is at
// least one kernel run and one forced GC long.
func maxRounds(window time.Duration) int {
	return int(window/(15*time.Millisecond)) + warmup + 1
}

// drift reads the whole table back and counts the cells that differ from the
// generator's model after the rounds the pass ran.
func drift(c *client, sc *script, done int, chk *checker) (drifted, cells int) {
	m := sc.modelAfter(done)
	var rec recorder
	c.send(&sc.final, &rec)
	chk.check(&sc.final, &rec)
	var got struct {
		Rows []struct {
			ID  int64 `json:"id"`
			Row []any `json:"row"`
		} `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(rec.buf))
	dec.UseNumber()
	if err := dec.Decode(&got); err != nil {
		chk.fail("final table read: %v", err)
		return 0, 0
	}
	cells = len(m.live) * arity
	seen := 0
	for _, r := range got.Rows {
		want, ok := m.rows[r.ID]
		if !ok || len(r.Row) != arity {
			drifted += arity
			continue
		}
		seen++
		for j := range want {
			if fmt.Sprint(r.Row[j]) != want[j] {
				drifted++
			}
		}
	}
	drifted += (len(m.live) - seen) * arity
	return drifted, cells
}
