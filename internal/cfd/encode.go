package cfd

import (
	"fmt"
	"slices"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// This file implements the relational representation of pattern tableaux
// from the TODS paper: a CFD's tableau is itself stored as a relation, so
// the constraint engine "maximally leverages the use of indices and other
// optimizations provided by the DBMS" (Semandaq, §2), and the generated
// detection SQL can simply join the data table with the tableau table.
//
// Encoding: one column per attribute of X followed by one per attribute of
// Y; constants keep their typed value, the wildcard is stored as the string
// "_" (the paper's convention). A pattern constant that is literally the
// string "_" would read back as the wildcard, so it is refused: the CFD
// stays valid for the engines that do not go through this encoding.

// wildcardValue is the stored representation of "_".
var wildcardValue = types.NewString(WildcardToken)

// EncodeTableau materializes the CFD's tableau as a new table named name.
// A STRING constant equal to WildcardToken is an error naming the CFD and
// the attribute.
func EncodeTableau(c *CFD, name string) (*relstore.Table, error) {
	if err := c.checkArity(); err != nil {
		return nil, err
	}
	attrs := append(append([]string{}, c.LHS...), c.RHS...)
	tab := relstore.NewTable(schema.New(name, attrs...))
	for _, pt := range c.Tableau {
		row := make(relstore.Tuple, len(attrs))
		for i, p := range slices.Concat(pt.LHS, pt.RHS) {
			if row[i] = encodeCell(p); !p.Wildcard && row[i].Equal(wildcardValue) {
				return nil, fmt.Errorf("cfd %s: the constant '%s' for %s cannot be stored in a tableau relation, where that string is the wildcard",
					c.ID, WildcardToken, attrs[i])
			}
		}
		if _, err := tab.Insert(row); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

func encodeCell(p PatternValue) types.Value {
	if p.Wildcard {
		return wildcardValue
	}
	return p.Const
}
