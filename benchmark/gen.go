package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"semandaq/internal/datagen"
)

// Attribute positions of datagen's customer relation.
const (
	colNAME = iota
	colCNT
	colCITY
	colZIP
	colSTR
	colCC
	colAC
	arity
)

var attrNames = [arity]string{"NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"}

const table = "customer"

// row is one tuple in CSV text form; the program parses the text the same
// way whether it arrives in a CSV upload or (see jsonCell) in a JSON body.
type row [arity]string

type editOp int

const (
	opSet editOp = iota
	opInsert
	opDelete
)

// edit is one write in structured form. The HTTP replica receives it as
// request bytes; the traced pass's lower rungs apply the same edit through
// the facade and the bare table.
type edit struct {
	op  editOp
	id  int64 // opInsert: the id the store will assign
	col int
	val string
	row row
}

// kind names what a request asks of the server; the traced pass picks the
// rungs below the handler by it.
type kind int

const (
	kLoadCSV kind = iota
	kCFDs
	kConsistency
	kEdit
	kUpdates
	kDetect
	kAudit
	kExploreCFDs
	kExploreLHS
	kExploreTuple
	kRepair
	kApply
	kDiscover
	kMonitor
	kTable
)

// want is what a correct response must carry; -1 leaves a field unchecked.
type want struct {
	tuples  int
	dirty   int
	applied int
	clean   bool // violations == 0
}

var anything = want{tuples: -1, dirty: -1, applied: -1}

type request struct {
	kind   kind
	method string
	target string
	body   []byte
	want   want

	engine string // kDetect: "" is the server's default, SQL
	edit   edit   // kEdit
	batch  []edit // kUpdates
	tuple  int64  // kExploreTuple
}

// round is one closed-loop iteration: the write bundle, then the read
// bundle, then (steward-cycle only) the cleanse step.
type round struct {
	write, read, cleanse []request
}

// group is the phi2 view of one UK zip: the generator's own account of which
// tuples [CNT=UK, ZIP] -> [STR] makes dirty.
type group struct {
	size int
	strs map[string]int
}

func (g *group) dirty() int {
	if len(g.strs) > 1 {
		return g.size
	}
	return 0
}

// model is the generator's copy of the table: what the program must hold if
// every write landed.
type model struct {
	rows   map[int64]*row
	live   []int64
	at     map[int64]int
	nextID int64
	groups map[string]*group
	dirty  int
}

func newModel() *model {
	return &model{rows: map[int64]*row{}, at: map[int64]int{}, groups: map[string]*group{}}
}

func (m *model) regroup(r *row, delta int) {
	if r[colCNT] != "UK" {
		return
	}
	g := m.groups[r[colZIP]]
	if g == nil {
		g = &group{strs: map[string]int{}}
		m.groups[r[colZIP]] = g
	}
	m.dirty -= g.dirty()
	g.size += delta
	if g.strs[r[colSTR]] += delta; g.strs[r[colSTR]] == 0 {
		delete(g.strs, r[colSTR])
	}
	m.dirty += g.dirty()
}

func (m *model) insert(r row) int64 {
	id := m.nextID
	m.nextID++
	m.rows[id] = &r
	m.at[id] = len(m.live)
	m.live = append(m.live, id)
	m.regroup(&r, +1)
	return id
}

func (m *model) delete(id int64) {
	m.regroup(m.rows[id], -1)
	delete(m.rows, id)
	i, last := m.at[id], len(m.live)-1
	m.live[i] = m.live[last]
	m.at[m.live[i]] = i
	m.live = m.live[:last]
	delete(m.at, id)
}

func (m *model) set(id int64, col int, val string) {
	r := m.rows[id]
	m.regroup(r, -1)
	r[col] = val
	m.regroup(r, +1)
}

func (m *model) apply(e edit) {
	switch e.op {
	case opSet:
		m.set(e.id, e.col, e.val)
	case opInsert:
		m.insert(e.row)
	case opDelete:
		m.delete(e.id)
	}
}

// script is everything one pass sends, generated before its clock starts.
type script struct {
	setup  []request
	rounds []round
	final  request // the table read that drift is counted from
	cfds   string
	hash   [sha256.Size]byte
}

// steward sizes one steward-cycle update batch.
type steward struct{ typos, flips, moves int }

// generator builds a script from a seed; nothing else feeds it.
type generator struct {
	spec    *spec
	rng     *rand.Rand
	seed    int64
	m       *model
	names   int
	typod   []revert // oldest first
	pending map[int64]bool
}

type revert struct {
	id    int64
	clean string
}

func generate(sp *spec, tuples int, seed int64, rounds int) *script {
	g := &generator{
		spec: sp, seed: seed, rng: rand.New(rand.NewSource(seed)),
		m: newModel(), pending: map[int64]bool{},
	}
	ds := datagen.Generate(datagen.Config{Tuples: tuples, Seed: seed, NoiseRate: sp.noise})
	src := ds.Clean
	if sp.noise > 0 {
		src = ds.Dirty
	}
	for _, t := range src.Snapshot().Rows() {
		var r row
		for j, v := range t {
			r[j] = v.CoerceString()
		}
		g.m.insert(r)
	}
	if sp.typoShare > 0 {
		for i := 0; i < int(float64(tuples)*sp.typoShare); i++ {
			g.typo()
		}
	}

	sc := &script{cfds: cfdText()}
	csvBody := g.csv()
	load := request{kind: kLoadCSV, method: "POST", target: "/api/tables/" + table, body: csvBody, want: anything}
	load.want.tuples = len(g.m.live)
	cfdBody, _ := json.Marshal(map[string]string{"text": sc.cfds})
	sc.setup = []request{
		load,
		{kind: kCFDs, method: "POST", target: "/api/cfds/" + table, body: cfdBody, want: anything},
		{kind: kConsistency, method: "GET", target: "/api/consistency/" + table, want: anything},
	}
	for _, engine := range []string{"native", "columnar", "parallel", "sql"} {
		sc.setup = append(sc.setup, g.detect(engine))
	}
	if sp.steward != nil {
		sc.setup = append(sc.setup, discoverRequest(),
			request{kind: kMonitor, method: "POST", target: "/api/monitor/" + table, want: want{tuples: -1, dirty: 0, applied: -1}})
	}

	for i := 0; i < rounds; i++ {
		var r round
		switch {
		case sp.reload:
			r.write = []request{load}
			r.read = []request{g.detect(sp.engine)}
		case sp.steward != nil:
			r = g.stewardRound(*sp.steward)
		default:
			r.write = g.editBundle(sp.edits)
			r.read = []request{g.detect(sp.engine)}
		}
		sc.rounds = append(sc.rounds, r)
	}
	sc.final = request{kind: kTable, method: "GET",
		target: fmt.Sprintf("/api/tables/%s?limit=%d", table, g.m.nextID), want: anything}

	h := sha256.New()
	put := func(rs []request) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %s %d\n", r.method, r.target, len(r.body))
			h.Write(r.body)
		}
	}
	put(sc.setup)
	for _, r := range sc.rounds {
		put(r.write)
		put(r.read)
		put(r.cleanse)
	}
	h.Sum(sc.hash[:0])
	return sc
}

// modelAfter rebuilds the table the program must hold once the first n rounds
// have run: the uploaded CSV with their writes replayed. A pass keeps no model
// while its clocks run, so the harness adds little to the heap the forced GCs
// walk. Of a steward-cycle batch only inserts and deletes stay: the repair
// reverts every injected error.
func (sc *script) modelAfter(n int) *model {
	m := newModel()
	recs, _ := csv.NewReader(bytes.NewReader(sc.setup[0].body)).ReadAll()
	for _, rec := range recs[1:] {
		m.insert(row(rec))
	}
	for _, r := range sc.rounds[:n] {
		for _, req := range r.write {
			switch req.kind {
			case kEdit:
				m.apply(req.edit)
			case kUpdates:
				for _, e := range req.batch {
					if e.op != opSet {
						m.apply(e)
					}
				}
			}
		}
	}
	return m
}

// cfdText renders datagen's standard CFDs in the text syntax POST /api/cfds
// takes, one id-prefixed line per pattern tuple.
func cfdText() string {
	var b strings.Builder
	for _, c := range datagen.StandardCFDs() {
		for _, line := range strings.Split(c.String(), "\n") {
			fmt.Fprintf(&b, "%s@ %s\n", c.ID, line)
		}
	}
	return b.String()
}

func (g *generator) csv() []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(attrNames[:])
	// Every id below nextID is live here: nothing has been deleted yet.
	for id := int64(0); id < g.m.nextID; id++ {
		w.Write(g.m.rows[id][:])
	}
	w.Flush()
	return buf.Bytes()
}

// expect is the state a detection must report now. Only regimes whose dirty
// set the generator builds itself have a dirty count to check.
func (g *generator) expect() want {
	w := want{tuples: len(g.m.live), dirty: -1, applied: -1}
	if g.spec.noise == 0 {
		w.dirty = g.m.dirty
		w.clean = g.m.dirty == 0
	}
	return w
}

func (g *generator) detect(engine string) request {
	target := "/api/detect/" + table
	if engine != "" {
		target += "?engine=" + engine + "&workers=2"
	}
	return request{kind: kDetect, method: "GET", target: target, want: g.expect(), engine: engine}
}

func discoverRequest() request {
	return request{kind: kDiscover, method: "POST", target: "/api/discover/" + table,
		body: []byte(`{"maxLHS":2,"workers":2}`), want: anything}
}

func (g *generator) name() string {
	g.names++
	return fmt.Sprintf("edit%d_%06d", g.seed, g.names)
}

func (g *generator) pick() int64 { return g.m.live[g.rng.Intn(len(g.m.live))] }

// pickUK returns a live UK tuple that no pending typo holds.
func (g *generator) pickUK() int64 {
	for {
		id := g.pick()
		if g.m.rows[id][colCNT] == "UK" && !g.pending[id] {
			return id
		}
	}
}

// typo swaps two adjacent characters of a UK tuple's street and queues the
// revert, so the dirty share stays where the workload put it.
func (g *generator) typo() edit {
	id := g.pickUK()
	clean := g.m.rows[id][colSTR]
	e := edit{op: opSet, id: id, col: colSTR, val: swapAdjacent(clean, g.rng)}
	g.typod = append(g.typod, revert{id, clean})
	g.pending[id] = true
	g.m.apply(e)
	return e
}

func swapAdjacent(s string, rng *rand.Rand) string {
	b := []byte(s)
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(b) - 1)
		if b[i] != b[i+1] {
			b[i], b[i+1] = b[i+1], b[i]
			return string(b)
		}
	}
	return s + "x"
}

// mix is the share of each write in an edit bundle, out of 16: most edits
// hit NAME, which no CFD mentions; the rest hit STR (phi2's right-hand side)
// or add and remove tuples.
var mix = [16]byte{'n', 'n', 'n', 'n', 'n', 'n', 'n', 'n', 'n', 'n', 't', 't', 'r', 'r', 'i', 'd'}

func (g *generator) editBundle(n int) []request {
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		var e edit
		switch mix[(i*7)%len(mix)] { // 7 is coprime to 16: an even interleaving
		case 'n':
			e = edit{op: opSet, id: g.pick(), col: colNAME, val: g.name()}
			g.m.apply(e)
		case 't':
			e = g.typo()
		case 'r':
			e = g.revert()
		case 'i':
			r := *g.m.rows[g.pick()]
			r[colNAME] = g.name()
			e = edit{op: opInsert, id: g.m.nextID, row: r}
			g.m.apply(e)
		case 'd':
			id := g.pick()
			delete(g.pending, id)
			e = edit{op: opDelete, id: id}
			g.m.apply(e)
		}
		out = append(out, editRequest(e))
	}
	return out
}

// revert undoes the oldest typo still in the table, or makes a new one when
// none is left.
func (g *generator) revert() edit {
	for len(g.typod) > 0 {
		rv := g.typod[0]
		g.typod = g.typod[1:]
		if !g.pending[rv.id] {
			continue // deleted since
		}
		delete(g.pending, rv.id)
		e := edit{op: opSet, id: rv.id, col: colSTR, val: rv.clean}
		g.m.apply(e)
		return e
	}
	return g.typo()
}

func editRequest(e edit) request {
	r := request{kind: kEdit, edit: e, want: anything}
	rows := "/api/tables/" + table + "/rows"
	switch e.op {
	case opSet:
		r.method, r.target = "PATCH", rows+"/"+strconv.FormatInt(e.id, 10)
		r.body = []byte(fmt.Sprintf(`{"attr":%q,"value":%s}`, attrNames[e.col], jsonCell(e.val)))
	case opInsert:
		r.method, r.target = "POST", rows
		r.body = []byte(`{"row":` + jsonRow(e.row) + `}`)
	case opDelete:
		r.method, r.target = "DELETE", rows+"/"+strconv.FormatInt(e.id, 10)
	}
	return r
}

// jsonCell writes a cell the way the CSV loader would have typed it: an
// integer as a JSON number, anything else as a string.
func jsonCell(s string) string {
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return s
	}
	b, _ := json.Marshal(s)
	return string(b)
}

func jsonRow(r row) string {
	cells := make([]string, arity)
	for j, c := range r {
		cells[j] = jsonCell(c)
	}
	return "[" + strings.Join(cells, ",") + "]"
}

// stewardRound injects errors the repairer can only undo one way — a street
// typo in a UK zip group of three or more (the majority restores it) and a
// country flipped against its calling code (phi3 names the constant) — each
// in a zip no other update of the batch touches, so the dirty count after
// the batch is the sum the generator keeps.
func (g *generator) stewardRound(sz steward) round {
	touched := map[string]bool{}
	free := func(uk bool, minSize int) int64 {
		for {
			id := g.pick()
			r := g.m.rows[id]
			key := r[colCNT] + "|" + r[colZIP]
			if touched[key] || (uk && r[colCNT] != "UK") {
				continue
			}
			if r[colCNT] == "UK" && g.m.groups[r[colZIP]].size < minSize {
				continue
			}
			touched[key] = true
			return id
		}
	}
	var batch []edit
	dirty := 0
	for i := 0; i < sz.typos; i++ {
		id := free(true, 3)
		r := g.m.rows[id]
		batch = append(batch, edit{op: opSet, id: id, col: colSTR, val: swapAdjacent(r[colSTR], g.rng)})
		dirty += g.m.groups[r[colZIP]].size
	}
	for i := 0; i < sz.flips; i++ {
		id := free(false, 0)
		flip := "UK"
		if g.m.rows[id][colCNT] == "UK" {
			flip = "US"
		}
		batch = append(batch, edit{op: opSet, id: id, col: colCNT, val: flip})
		dirty++
	}
	errors := len(batch)
	probe := batch[0].id
	// Inserts and deletes are the only updates the model keeps: the repair
	// reverts the rest.
	for i := 0; i < sz.moves; i++ {
		r := *g.m.rows[free(false, 0)]
		r[colNAME] = g.name()
		e := edit{op: opInsert, id: g.m.nextID, row: r}
		g.m.apply(e)
		batch = append(batch, e)
		e = edit{op: opDelete, id: free(false, 4)}
		g.m.apply(e)
		batch = append(batch, e)
	}

	n := len(g.m.live)
	get := func(k kind, path string) request {
		return request{kind: k, method: "GET", target: "/api/" + path, want: anything}
	}
	dirtyNow := want{tuples: n, dirty: dirty, applied: -1}
	detect := g.detect(g.spec.engine)
	detect.want = dirtyNow
	// The audit calls only a group's minority dirty; the rest of the group is
	// "arguably clean".
	audit := get(kAudit, "audit/"+table)
	audit.want = want{tuples: n, dirty: errors, applied: -1}
	tuple := get(kExploreTuple, fmt.Sprintf("explore/%s/tuple/%d", table, probe))
	tuple.tuple = probe
	repair := request{kind: kRepair, method: "POST", target: "/api/repair/" + table, want: anything}
	apply := request{kind: kApply, method: "POST", target: "/api/repair/" + table + "/apply",
		want: want{tuples: -1, dirty: -1, applied: errors}}
	return round{
		write: []request{updatesRequest(batch, want{tuples: -1, dirty: dirty, applied: -1})},
		read: []request{detect, audit,
			get(kExploreCFDs, "explore/"+table+"/cfds"),
			get(kExploreLHS, "explore/"+table+"/lhs?cfd=phi2&pattern=0"),
			tuple},
		// The last detect is the steady-state check: every round must leave
		// the table clean.
		cleanse: []request{repair, apply, discoverRequest(), g.detect(g.spec.engine)},
	}
}

func updatesRequest(batch []edit, w want) request {
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i, e := range batch {
		if i > 0 {
			b.WriteByte(',')
		}
		switch e.op {
		case opSet:
			fmt.Fprintf(&b, `{"op":"set","id":%d,"attr":%q,"value":%s}`, e.id, attrNames[e.col], jsonCell(e.val))
		case opInsert:
			fmt.Fprintf(&b, `{"op":"insert","row":%s}`, jsonRow(e.row))
		case opDelete:
			fmt.Fprintf(&b, `{"op":"delete","id":%d}`, e.id)
		}
	}
	b.WriteString(`]}`)
	return request{kind: kUpdates, method: "POST", target: "/api/monitor/" + table + "/updates",
		body: []byte(b.String()), want: w, batch: batch}
}
