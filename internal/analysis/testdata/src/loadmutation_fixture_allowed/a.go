// Negative fixture for the loadmutation analyzer: this package name
// marks it as part of the audited allowlist, so the same mutations that
// are flagged in loadmutation_fixture produce no diagnostics here.
package loadmutation_fixture_allowed

import (
	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/tree"
)

func allowed(m *tree.Machine) {
	lt := loadtree.New(m)
	lt.Place(m.Root())
	lt.Remove(m.Root())
	lt.Reset()
	l := copies.NewList(m)
	l.Place(1)
	l.OccupyAt(0, m.Root())
	l.Reset()
}
