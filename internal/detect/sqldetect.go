package detect

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
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
// NULL is a value like any other to a CFD (the factorised core groups it
// as one more dictionary value), so the generated SQL compares LHS values
// null-safely (IS NOT DISTINCT FROM) and counts NULL as one more distinct
// RHS class.
type SQLDetector struct {
	// Engine runs the generated SQL. Its store must contain the data table.
	// A run pins its tableau and group tables on the engine, so concurrent
	// runs need an engine each (NewSQLDetector makes one).
	Engine *sqleng.Engine
	// KeepArtifacts, when set, also publishes the tableau and group tables
	// to the store and leaves them there (the CLI uses it for -explain).
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

// DetectSnapshot implements SnapshotDetector. The snapshot is pinned in the
// detector's SQL engine for the duration of the run, so the several
// generated queries (Qc and the two Qv steps, per merged CFD) all read the
// data table at one version even while writers mutate it; the report is
// stamped with that version. The snapshot's table must be registered in
// the engine's store under its schema name.
func (d *SQLDetector) DetectSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*Report, error) {
	preps, err := prepare(snap.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	dataName := snap.Schema().Name
	if _, ok := d.Engine.Store().Table(dataName); !ok {
		return nil, fmt.Errorf("detect: table %q is not registered in the detector's store", dataName)
	}
	d.Engine.Pin(snap)
	defer d.Engine.Unpin(dataName)
	rep := &Report{
		Table:      dataName,
		TupleCount: snap.Len(),
		Version:    snap.Version(),
		PerCFD:     make(map[string]*CFDStats),
	}
	for i, p := range preps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &CFDStats{}
		rep.PerCFD[p.c.ID] = st
		if err := d.detectOneSQL(ctx, dataName, p, i, rep, st); err != nil {
			return nil, err
		}
	}
	finish(rep)
	return rep, nil
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
// per output row. The non-grouped Qc and Qv join-back queries go through
// here so violations are assembled as the join produces rows, without the
// engine ever materializing the full result set.
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

// artefact makes a tableau or group table readable by this run's queries
// alone: pinned on the detector's engine, never in the shared store (where
// a concurrent run's table of the same name would replace it mid-query) —
// unless KeepArtifacts asks for it to be published too. The returned func
// unpins it.
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

// detectOneSQL generates and runs Qc and Qv for one merged CFD. The
// context reaches the SQL engine's scan loops, so a mid-query cancel
// aborts inside the generated query rather than between queries.
func (d *SQLDetector) detectOneSQL(ctx context.Context, dataName string, p prepared, seq int, rep *Report, st *CFDStats) error {
	gen := sqlFor(p.c, seq)
	tpName, match := gen.tpName, gen.match
	// Encoded into a scratch store: the table is this run's own.
	tp, err := cfd.EncodeTableau(relstore.NewStore(), p.c, tpName)
	if err != nil {
		return err
	}
	defer d.artefact(tp)()

	q := quoteIdent
	rhs := p.c.RHS[0]

	// Qc — single-tuple violations: the tuple matches the LHS pattern but
	// its RHS value differs from the pattern's RHS constant.
	if gen.hasConst {
		qc := fmt.Sprintf(
			"SELECT t.%s, tp.%s, tp.%s, t.%s FROM %s t, %s tp WHERE %s AND tp.%s <> '%s' AND t.%s <> tp.%s",
			sqleng.TIDColumn, sqleng.TIDColumn, q(rhs), q(rhs),
			q(dataName), q(tpName), match,
			q(rhs), cfd.WildcardToken, q(rhs), q(rhs))
		seen := map[relstore.TupleID]bool{}
		if err := d.stream(ctx, qc, func(row []types.Value) bool {
			id := relstore.TupleID(row[0].Int())
			rep.Violations = append(rep.Violations, Violation{
				CFDID:    p.c.ID,
				Kind:     SingleTuple,
				Pattern:  int(row[1].Int()),
				TupleID:  id,
				Attr:     rhs,
				Expected: row[2],
				Got:      row[3],
			})
			if !seen[id] {
				seen[id] = true
				st.SingleTuple++
			}
			return true
		}); err != nil {
			return fmt.Errorf("detect: Qc for %s: %w", p.c.ID, err)
		}
	}

	// Qv — multi-tuple violations, in two SQL steps: (1) group the tuples
	// matching some wildcard-RHS pattern by the embedded FD's LHS and keep
	// groups with more than one distinct RHS value; (2) join the groups
	// back to fetch the member tuples.
	if gen.hasVar {
		var selCols, joinConds []string
		for _, a := range p.c.LHS {
			selCols = append(selCols, fmt.Sprintf("t.%s AS %s", q(a), q(a)))
			joinConds = append(joinConds, fmt.Sprintf("t.%s IS NOT DISTINCT FROM g.%s", q(a), q(a)))
		}
		qv1 := fmt.Sprintf(
			"SELECT %s FROM %s t, %s tp WHERE %s AND tp.%s = '%s' GROUP BY %s HAVING %s",
			strings.Join(selCols, ", "),
			q(dataName), q(tpName), match,
			q(rhs), cfd.WildcardToken, gen.lhs, gen.having)
		// Stream the violating group keys straight into the group table:
		// the engine yields each finished group without materializing a
		// result, and the table is the only buffer the keys ever occupy.
		gName := fmt.Sprintf("_vg_%d_%s", seq, sanitizeIdent(p.c.ID))
		if d.KeepArtifacts {
			d.Engine.Store().Drop(gName) // a kept table of an earlier run
		}
		gTab := relstore.NewTable(schema.New(gName, p.c.LHS...))
		var insErr error
		if err := d.stream(ctx, qv1, func(row []types.Value) bool {
			if _, insErr = gTab.Insert(relstore.Tuple(row)); insErr != nil {
				return false
			}
			return true
		}); err != nil {
			return fmt.Errorf("detect: Qv step 1 for %s: %w", p.c.ID, err)
		}
		if insErr != nil {
			return insErr
		}
		if gTab.Len() == 0 {
			return nil
		}
		defer d.artefact(gTab)()
		qv2 := fmt.Sprintf(
			"SELECT t.%s, t.%s, %s FROM %s t, %s g WHERE %s",
			sqleng.TIDColumn, q(rhs), gen.lhs,
			q(dataName), q(gName), strings.Join(joinConds, " AND "))
		// Assemble groups in Go as the join streams: key on the LHS vector.
		type acc struct {
			lhsVals   []types.Value
			members   []relstore.TupleID
			rhsOf     map[relstore.TupleID]string
			rhsCounts map[string]int
		}
		groups := map[string]*acc{}
		if err := d.stream(ctx, qv2, func(row []types.Value) bool {
			id := relstore.TupleID(row[0].Int())
			rhsVal := row[1]
			lhsVals := row[2:]
			key := lhsKey(lhsVals)
			g, ok := groups[key]
			if !ok {
				g = &acc{
					lhsVals:   slices.Clone(lhsVals), // the streamed row is the engine's to reuse
					rhsOf:     map[relstore.TupleID]string{},
					rhsCounts: map[string]int{},
				}
				groups[key] = g
			}
			g.members = append(g.members, id)
			rk := rhsVal.Key()
			g.rhsOf[id] = rk
			g.rhsCounts[rk]++
			return true
		}); err != nil {
			return fmt.Errorf("detect: Qv step 2 for %s: %w", p.c.ID, err)
		}
		n := 0
		for _, g := range groups {
			st.Groups++
			rep.Groups = append(rep.Groups, &Group{
				CFDID:       p.c.ID,
				Attr:        rhs,
				LHSAttrs:    append([]string(nil), p.c.LHS...),
				LHSValues:   g.lhsVals,
				Members:     g.members,
				RHSOf:       g.rhsOf,
				RHSCounts:   g.rhsCounts,
				MajorityKey: majorityKey(g.rhsCounts),
			})
			for _, id := range g.members {
				if n++; n%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				partners := len(g.members) - g.rhsCounts[g.rhsOf[id]]
				rep.Violations = append(rep.Violations, Violation{
					CFDID:    p.c.ID,
					Kind:     MultiTuple,
					Pattern:  -1,
					TupleID:  id,
					Attr:     rhs,
					Partners: partners,
				})
				st.MultiTuple++
			}
		}
	}
	return nil
}

// GenerateSQL returns the detection SQL that Detect would run for the given
// CFDs (after normalization and merging), without executing anything. The
// CLI's -explain mode and the docs use it.
func GenerateSQL(tab *relstore.Table, cfds []*cfd.CFD) ([]string, error) {
	preps, err := prepare(tab.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	var out []string
	q := quoteIdent
	for seq, p := range preps {
		gen := sqlFor(p.c, seq)
		rhs := p.c.RHS[0]
		if gen.hasConst {
			out = append(out, fmt.Sprintf(
				"-- %s: Qc (single-tuple violations)\nSELECT t.* FROM %s t, %s tp WHERE %s AND tp.%s <> '%s' AND t.%s <> tp.%s",
				p.c.ID, q(tab.Schema().Name), q(gen.tpName), gen.match,
				q(rhs), cfd.WildcardToken, q(rhs), q(rhs)))
		}
		if gen.hasVar {
			out = append(out, fmt.Sprintf(
				"-- %s: Qv (multi-tuple violation groups)\nSELECT %s FROM %s t, %s tp WHERE %s AND tp.%s = '%s' GROUP BY %s HAVING %s",
				p.c.ID, gen.lhs,
				q(tab.Schema().Name), q(gen.tpName), gen.match,
				q(rhs), cfd.WildcardToken, gen.lhs, gen.having))
		}
	}
	return out, nil
}
