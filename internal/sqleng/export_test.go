package sqleng

// Plan returns the lines describing the plan the engine builds for a
// SELECT (selectPlan.describe): each scan and the conjuncts it runs, the
// translation tables, whether the class walk serves the statement, and the
// sink. Tests outside the package read plans through it.
func Plan(e *Engine, sql string) ([]string, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := e.buildSelectPlan(st)
	if err != nil {
		return nil, err
	}
	return p.describe(), nil
}
