// Fixture for the loadmutation analyzer: this package is *not* in the
// audited allowlist, so every load-state mutation is flagged. Read-only
// queries and construction are fine.
package loadmutation_fixture

import (
	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/tree"
)

func bad(m *tree.Machine) {
	lt := loadtree.New(m)
	lt.Place(m.Root())  // want `mutates PE-load state`
	lt.Remove(m.Root()) // want `mutates PE-load state`
	lt.Reset()          // want `mutates PE-load state`
	c := copies.NewCopy(m)
	c.Occupy(m.Root()) // want `mutates PE-load state`
	c.Vacate(m.Root()) // want `mutates PE-load state`
	l := copies.NewList(m)
	l.Place(1)              // want `mutates PE-load state`
	l.OccupyAt(0, m.Root()) // want `mutates PE-load state`
	l.Reset()               // want `mutates PE-load state`
}

func good(m *tree.Machine) int {
	lt := loadtree.New(m) // constructing state is fine; mutating it is not
	c := copies.NewCopy(m)
	_ = c.Vacant(m.Root())
	_, _ = c.FindVacant(1)
	return lt.MaxLoad()
}
