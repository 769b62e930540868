// Exact per-attribute statistics: the snapshot's columnar artifacts carry
// precise cardinalities for free — dictionary sizes (distinct stored
// values) and PLI class counts (distinct Equal-classes) — so a query
// planner ordering joins over one snapshot never has to estimate anything.
// Unlike histogram-based optimizers these numbers are exact by
// construction: the dictionary is the set of distinct values and the PLI
// is the value-equality partition itself.
package relstore

// ColClassCount returns the exact number of Equal-classes of the
// snapshot's j-th attribute — the class count of its PLI, collapsing
// cross-kind Equal values (INT 1 and FLOAT 1.0) into one class. The PLI is
// built lazily and cached on the snapshot, so the first call pays the
// partition build that a PLI-class join would pay anyway.
func (s *Snapshot) ColClassCount(j int) int {
	return s.Columnar().Col(j).PLI().NumClasses()
}
