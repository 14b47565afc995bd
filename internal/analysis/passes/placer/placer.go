// Package placer keeps tenant routing behind the engine's placement
// layer.
//
// Tenant→shard routing is dynamic: a rebalance pass can rewrite any
// tenant's route between two batches, so the only correct way to reach
// a tenant's shard is through the mutable routing table
// (route/shardAt/lockTenant in placement.go). Code that indexes e.shards[...] directly with its own arithmetic, or re-derives
// a route by fnv-hashing the tenant ID, resurrects the pre-placement
// wiring: it is right until the first move, then silently reads or
// locks the wrong stripe. placer flags both outside placement.go. The
// fnv check targets New32a alone — fnv-32a over the tenant ID is the
// routing hash; other fnv widths (the overload path fingerprints queue
// snapshots with New64a) are not routes.
package placer

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"partalloc/internal/analysis"
)

// Analyzer is the placer pass.
var Analyzer = &analysis.Analyzer{
	Name: "placer",
	Doc: "flags direct e.shards[...] indexing and fnv.New32a tenant-hashing in the engine " +
		"outside placement.go; routes are dynamic (a rebalance pass may rewrite them at any " +
		"batch boundary), so shard access must go through the placement layer " +
		"(route/shardAt/lockTenant)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	pass.Preorder([]ast.Node{(*ast.IndexExpr)(nil), (*ast.CallExpr)(nil)}, func(n ast.Node) {
		// The placement layer itself, and tests (which probe stripes
		// directly on purpose), are exempt.
		if inPlacementLayer(pass, n.Pos()) || pass.InTestFile(n.Pos()) {
			return
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			sel, ok := n.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "shards" {
				return
			}
			pass.Reportf(n.Pos(),
				"direct shards[...] indexing bypasses the placement layer; routes are dynamic "+
					"(a rebalance pass may rewrite them between batches) — go through "+
					"route/shardAt/lockTenant in placement.go")
		case *ast.CallExpr:
			if pass.FuncNameOf(n) != "hash/fnv.New32a" {
				return
			}
			pass.Reportf(n.Pos(),
				"fnv.New32a re-derives a tenant route the placer may have moved away from; "+
					"hashShard in placement.go is the single tenant-hashing site — "+
					"look routes up through the routing table instead")
		}
	})
	return nil
}

// inPlacementLayer reports whether pos sits in placement.go — the one
// file allowed to index stripes and hash tenant IDs.
func inPlacementLayer(pass *analysis.Pass, pos token.Pos) bool {
	return filepath.Base(pass.Fset.Position(pos).Filename) == "placement.go"
}

// inScope restricts the check to the engine package, where the shard
// stripes and the routing hash live. Other packages never see e.shards,
// and fnv use elsewhere (checksums, fingerprints) has nothing to do
// with routing.
func inScope(pkgPath string) bool {
	// Fixture packages opt in by naming convention so the analyzer is
	// testable outside the real module tree.
	if strings.Contains(pkgPath, "placer_fixture") {
		return true
	}
	return pkgPath == "partalloc/internal/engine"
}
