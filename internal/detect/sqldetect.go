package detect

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// SQLDetector implements the detection technique of the TODS paper: for
// every merged CFD it generates exactly two SQL queries — Qc catching
// single-tuple (constant-pattern) violations and Qv catching multi-tuple
// (variable-pattern) violations — and runs them on the sqleng engine over
// the relationally encoded tableau. The number of queries is independent of
// the number of pattern tuples, which is the technique's selling point.
//
// The result is the factorised report (factor.go). Qc's rows are its
// single-tuple violations. Qv returns the violating LHS values; each is
// looked up on column codes among the classes of the CFD's LHS partition,
// the one the columnar core groups by, and its class becomes a group. The
// run builds each column set's classes once (relstore.ClassMemo) and pins
// them with the snapshot, so Qv's class walk and its key lookups read one
// build. A Qv key without a class, or whose class is pure, is an error:
// SQL's HAVING stays an independent check on the group core.
//
// NULL is a value like any other to a CFD (the factorised core groups it
// as one more dictionary value). The generated SQL matches an LHS value to
// its pattern with tp.A = '_' OR t.A = tp.A, groups NULL as an ordinary
// GROUP BY value and counts it as one more distinct RHS class (HAVING
// compares COUNT(rhs) with COUNT(*)).
type SQLDetector struct {
	// Engine runs the generated SQL. Its store must contain the data table.
	// A run pins its tableau tables on the engine, so concurrent runs need
	// an engine each (NewSQLDetector makes one).
	Engine *sqleng.Engine
	// KeepArtifacts, when set, also publishes the tableau tables to the
	// store and leaves them there, for tests and the benchmark's traced
	// SQL to query; nothing served sets it.
	KeepArtifacts bool
	// Trace receives every generated SQL statement, when non-nil.
	Trace func(sql string)
}

// NewSQLDetector builds a SQL detector over the store holding the data.
func NewSQLDetector(store *relstore.Store) *SQLDetector {
	return &SQLDetector{Engine: sqleng.New(store)}
}

// Detect implements Detector.
func (d *SQLDetector) Detect(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Report, error) {
	store := d.Engine.Store()
	if got, ok := store.Table(tab.Schema().Name); !ok || got != tab {
		return nil, fmt.Errorf("detect: table %q is not registered in the detector's store", tab.Schema().Name)
	}
	return d.DetectSnapshot(ctx, tab.Snapshot(), cfds)
}

// DetectSnapshot implements SnapshotDetector: DetectFactorised, exploded
// to the flat report.
func (d *SQLDetector) DetectSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*Report, error) {
	fr, err := d.DetectFactorised(ctx, snap, cfds)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the explosion below is not interruptible
	}
	return fr.Explode(), nil
}

// DetectFactorised implements FactorDetector. The snapshot is pinned in the
// detector's SQL engine, with the run's class memo, for the duration of the
// run, so the generated queries (Qc and Qv, per merged CFD) all read the
// data table at one version even while writers mutate it, and the report's
// groups are classes of that same version. The snapshot's table must be
// registered in the engine's store under its schema name.
func (d *SQLDetector) DetectFactorised(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	snap, cps, classes, err := bindCFDs(rsnap, cfds)
	if err != nil {
		return nil, err
	}
	dataName := snap.Schema().Name
	if _, ok := d.Engine.Store().Table(dataName); !ok {
		return nil, fmt.Errorf("detect: table %q is not registered in the detector's store", dataName)
	}
	d.Engine.PinClasses(rsnap, classes)
	defer d.Engine.Unpin(dataName)
	parts := make([]cfdPart, len(cps))
	for i := range cps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.detectOneSQL(ctx, dataName, &cps[i], i, snap.IDs(), &parts[i]); err != nil {
			return nil, err
		}
	}
	return assemble(snap, cps, parts), nil
}

// sanitizeIdent makes a CFD ID usable inside a table name.
func sanitizeIdent(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// stream runs sql through the engine's lazy executor, calling yield once
// per output row, so violations and group keys are consumed as the engine
// produces them, without it ever materializing the full result set.
func (d *SQLDetector) stream(ctx context.Context, sql string, yield func(row []types.Value) bool) error {
	if d.Trace != nil {
		d.Trace(sql)
	}
	ss, err := d.Engine.Stream(ctx, sql)
	if err != nil {
		return err
	}
	return ss.Each(ctx, yield)
}

// artefact makes a tableau readable by this run's queries alone: pinned on
// the detector's engine, never in the shared store (where a concurrent
// run's table of the same name would replace it mid-query) — unless
// KeepArtifacts asks for it to be published too. The returned func unpins
// it.
func (d *SQLDetector) artefact(tab *relstore.Table) (release func()) {
	d.Engine.Pin(tab.Snapshot())
	if d.KeepArtifacts {
		d.Engine.Store().Put(tab)
	}
	return func() { d.Engine.Unpin(tab.Schema().Name) }
}

func quoteIdent(a string) string { return `"` + a + `"` }

// cfdSQL is the SQL text Detect and GenerateSQL share for one merged CFD.
type cfdSQL struct {
	tpName           string
	lhs              string // the embedded FD's LHS columns of the data table, comma-separated
	match            string // each X attribute is the pattern's wildcard or equals the data value
	having           string // more than one distinct RHS class, NULL being one
	hasConst, hasVar bool
}

func sqlFor(c *cfd.CFD, seq int) cfdSQL {
	q := quoteIdent
	out := cfdSQL{tpName: fmt.Sprintf("_tp_%d_%s", seq, sanitizeIdent(c.ID))}
	var lhs, matchConds []string
	for _, a := range c.LHS {
		lhs = append(lhs, "t."+q(a))
		matchConds = append(matchConds,
			fmt.Sprintf("(tp.%s = '%s' OR t.%s = tp.%s)", q(a), cfd.WildcardToken, q(a), q(a)))
	}
	out.lhs, out.match = strings.Join(lhs, ", "), strings.Join(matchConds, " AND ")
	rhs := "t." + q(c.RHS[0])
	out.having = fmt.Sprintf("COUNT(DISTINCT %s) > 1 OR (COUNT(DISTINCT %s) = 1 AND COUNT(%s) < COUNT(*))", rhs, rhs, rhs)
	for i := range c.Tableau {
		if c.Tableau[i].RHS[0].Wildcard {
			out.hasVar = true
		} else {
			out.hasConst = true
		}
	}
	return out
}

// qc is Qc's text: the data tuples matching some constant-RHS pattern
// whose RHS value differs from the pattern's constant. It returns one row
// per single-tuple violation: the tuple's id, the pattern's, the pattern's
// RHS constant and the tuple's RHS value.
func (g cfdSQL) qc(data string, c *cfd.CFD) string {
	q, rhs := quoteIdent, quoteIdent(c.RHS[0])
	return fmt.Sprintf("SELECT t.%s, tp.%s, tp.%s, t.%s FROM %s t, %s tp WHERE %s AND tp.%s <> '%s' AND t.%s <> tp.%s",
		sqleng.TIDColumn, sqleng.TIDColumn, rhs, rhs, q(data), q(g.tpName), g.match, rhs, cfd.WildcardToken, rhs, rhs)
}

// qv is Qv's text: the data tuples matching some wildcard-RHS pattern,
// grouped by the embedded FD's LHS, keeping the groups with more than one
// distinct RHS class. It returns one row per violating group: its LHS
// values.
func (g cfdSQL) qv(data string, c *cfd.CFD) string {
	q := quoteIdent
	return fmt.Sprintf("SELECT %s FROM %s t, %s tp WHERE %s AND tp.%s = '%s' GROUP BY %s HAVING %s",
		g.lhs, q(data), q(g.tpName), g.match, q(c.RHS[0]), cfd.WildcardToken, g.lhs, g.having)
}

// detectOneSQL generates and runs Qc and Qv for one merged CFD into its
// report part. The context reaches the SQL engine's scan loops, so a
// mid-query cancel aborts inside the generated query rather than between
// queries.
func (d *SQLDetector) detectOneSQL(ctx context.Context, dataName string, cp *colPrep, seq int, ids []relstore.TupleID, out *cfdPart) error {
	c := cp.p.c
	gen := sqlFor(c, seq)
	// Encoded into a scratch store: the table is this run's own.
	tp, err := cfd.EncodeTableau(relstore.NewStore(), c, gen.tpName)
	if err != nil {
		return err
	}
	defer d.artefact(tp)()
	rhs := c.RHS[0]

	// Qc — single-tuple violations: the tuple matches the LHS pattern but
	// its RHS value differs from the pattern's RHS constant.
	if gen.hasConst {
		if err := d.stream(ctx, gen.qc(dataName, c), func(row []types.Value) bool {
			out.viols = append(out.viols, Violation{
				CFDID:    c.ID,
				Kind:     SingleTuple,
				Pattern:  int(row[1].Int()),
				TupleID:  relstore.TupleID(row[0].Int()),
				Attr:     rhs,
				Expected: row[2],
				Got:      row[3],
			})
			return true
		}); err != nil {
			return fmt.Errorf("detect: Qc for %s: %w", c.ID, err)
		}
	}

	// Qv — multi-tuple violations: each violating group's LHS values,
	// resolved to their Equal-class codes, name a class of the LHS
	// partition, the one the class walk on Qv's WHERE grouped by. A key that
	// names no class, or a second key of one class, or a class that agrees
	// on the RHS after all, is an error: the check is SQL's own,
	// independent of the group core's.
	if gen.hasVar {
		cls := cp.lhsClasses()
		codes, met := make([]uint32, len(cp.lhsSet)), make([]bool, cls.NumClasses())
		codeCounts := make(map[uint32]int, 8)
		var keyErr error
		if err := d.stream(ctx, gen.qv(dataName, c), func(row []types.Value) bool {
			for k, col := range cp.lhsCols {
				code, ok := col.EqCodeOf(row[k])
				if !ok {
					keyErr = fmt.Errorf("detect: Qv for %s returned %v, which no %s value equals", c.ID, row, c.LHS[k])
					return false
				}
				codes[slices.Index(cp.lhsSet, cp.p.lhsPos[k])] = code
			}
			cl, ok := cls.Lookup(codes)
			switch {
			case !ok:
				keyErr = fmt.Errorf("detect: Qv for %s returned %v, which is no class of its LHS partition", c.ID, row)
			case met[cl]:
				keyErr = fmt.Errorf("detect: Qv for %s returned a second group of the class of %v", c.ID, row)
			default:
				met[cl] = true
				if g := newFactorGroup(cp, cls.Class(cl), codeCounts, ids); g != nil {
					out.groups = append(out.groups, g)
				} else {
					keyErr = fmt.Errorf("detect: Qv for %s returned the group %v, which agrees on %s", c.ID, row, rhs)
				}
			}
			return keyErr == nil
		}); err != nil {
			return fmt.Errorf("detect: Qv for %s: %w", c.ID, err)
		}
		return keyErr
	}
	return nil
}

// GenerateSQL returns the detection SQL that Detect runs for the given CFDs
// (after normalization and merging), in the order it runs it, without
// executing anything: each statement is a "-- " header line naming the CFD
// and the query, then the query's text. core's DetectionSQL serves it: the
// CLI's sql command prints it, and so does GET /api/detect/{table}/sql.
func GenerateSQL(tab *relstore.Table, cfds []*cfd.CFD) ([]string, error) {
	preps, err := prepare(tab.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	var out []string
	for seq, p := range preps {
		gen := sqlFor(p.c, seq)
		if gen.hasConst {
			out = append(out, fmt.Sprintf("-- %s: Qc (single-tuple violations)\n%s",
				p.c.ID, gen.qc(tab.Schema().Name, p.c)))
		}
		if gen.hasVar {
			out = append(out, fmt.Sprintf("-- %s: Qv (multi-tuple violation groups)\n%s",
				p.c.ID, gen.qv(tab.Schema().Name, p.c)))
		}
	}
	return out, nil
}
