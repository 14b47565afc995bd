// Package loadmutation confines PE-load mutation to the audited allocator
// packages.
//
// The paper's central quantity is load — the number of threads resident
// on a PE (§2). Every theorem this repo reproduces (Theorems 3.1, 4.1,
// 4.2, 5.1) bounds allocator load against L* = ⌈s(σ)/N⌉, and every bound
// is checked dynamically by tests and internal/invariant under the
// assumption that load state changes only through the allocator entry
// points in internal/core and the state structures they own
// (internal/copies, internal/loadtree). A stray Place/Occupy/Vacate call
// from a driver, experiment, or report would desynchronize load state
// from task placements without tripping any runtime panic — exactly the
// silent drift this analyzer forbids.
package loadmutation

import (
	"go/ast"
	"strings"

	"partalloc/internal/analysis"
)

// Analyzer is the loadmutation pass.
var Analyzer = &analysis.Analyzer{
	Name: "loadmutation",
	Doc: "forbids PE-load mutation (loadtree/copies state changes) outside the " +
		"audited allocator packages internal/core, internal/copies, internal/loadtree",
	Run: run,
}

// mutators are the load-state-changing methods. Calling any of them
// outside allowedPkgs bypasses the allocator bookkeeping.
var mutators = map[string]string{
	"(*partalloc/internal/loadtree.Tree).Place":  "loadtree.Tree.Place",
	"(*partalloc/internal/loadtree.Tree).Remove": "loadtree.Tree.Remove",
	"(*partalloc/internal/loadtree.Tree).Reset":  "loadtree.Tree.Reset",
	"(*partalloc/internal/copies.Copy).Occupy":   "copies.Copy.Occupy",
	"(*partalloc/internal/copies.Copy).Vacate":   "copies.Copy.Vacate",
	"(*partalloc/internal/copies.List).Place":    "copies.List.Place",
	"(*partalloc/internal/copies.List).OccupyAt": "copies.List.OccupyAt",
	"(*partalloc/internal/copies.List).Vacate":   "copies.List.Vacate",
	"(*partalloc/internal/copies.List).Reset":    "copies.List.Reset",
}

// allowedPkgs may mutate load state: the allocators themselves and the
// state packages they own. Everyone else — including the runtime
// invariant checker — observes loads through read-only snapshots.
var allowedPkgs = map[string]bool{
	"partalloc/internal/core":     true,
	"partalloc/internal/copies":   true,
	"partalloc/internal/loadtree": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if allowedPkgs[path] || strings.Contains(path, "loadmutation_fixture_allowed") {
		return nil
	}
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if human, ok := mutators[pass.FuncNameOf(call)]; ok {
			pass.Reportf(call.Pos(),
				"%s mutates PE-load state outside the audited allocator packages; route this through a core.Allocator",
				human)
		}
	})
	return nil
}
