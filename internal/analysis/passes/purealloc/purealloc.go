// Package purealloc proves allocators pure: the paper's competitive
// bounds (and every golden table in this repo) assume an allocator's
// decisions are a deterministic function of the event sequence and its
// seed. A method of an Allocator implementation must therefore never
// mutate package-level state, read the wall clock, or draw from the
// global math/rand source — directly or through any callee.
//
// Impurity is compositional: every function that mutates a package
// variable or touches time.Now / global rand exports an Impure fact, and
// callers inherit it, so an allocator method calling a helper three
// packages away is still convicted with the full chain in the message.
package purealloc

import (
	"go/ast"
	"go/types"
	"strings"

	"partalloc/internal/analysis"
)

// Impure is the fact exported for a function that (transitively) mutates
// package-level state, reads the wall clock, or uses the global
// math/rand source. Reason is a short human-readable chain.
type Impure struct {
	Reason string
}

// AFact marks Impure as a fact type.
func (*Impure) AFact() {}

func (f *Impure) String() string { return "impure: " + f.Reason }

// Analyzer is the purealloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "purealloc",
	Doc: "forbids impurity in Allocator implementations: no package-level state " +
		"mutation, wall-clock reads, or global math/rand — transitively, via Impure facts",
	Run:       run,
	FactTypes: []analysis.Fact{(*Impure)(nil)},
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	a := &analyzer{pass: pass, closures: make(map[types.Object]*ast.FuncLit)}
	a.indexClosures()
	a.computeFacts()
	a.checkAllocators()
	return nil
}

// inScope restricts the check to this module plus the purealloc fixtures.
func inScope(pkgPath string) bool {
	return pkgPath == "partalloc" || strings.HasPrefix(pkgPath, "partalloc/") ||
		strings.Contains(pkgPath, "purealloc_fixture")
}

type analyzer struct {
	pass *analysis.Pass
	// closures maps a local variable to the function literal assigned to
	// it, so helper closures resolve at their call sites.
	closures map[types.Object]*ast.FuncLit
	// local caches each function's impurity reason during the fixpoint
	// ("" = pure).
	local map[ast.Node]string
	// objReason indexes the same reasons by function object after the
	// fixpoint settles.
	objReason map[*types.Func]string
}

// indexClosures records `f := func(...){...}` bindings (and var f = ...).
func (a *analyzer) indexClosures() {
	a.pass.Preorder([]ast.Node{(*ast.AssignStmt)(nil), (*ast.ValueSpec)(nil)}, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, rhs := range st.Rhs {
				if lit, ok := rhs.(*ast.FuncLit); ok {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						if obj := a.pass.TypesInfo.Defs[id]; obj != nil {
							a.closures[obj] = lit
						} else if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
							a.closures[obj] = lit
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range st.Values {
				if lit, ok := rhs.(*ast.FuncLit); ok && i < len(st.Names) {
					if obj := a.pass.TypesInfo.Defs[st.Names[i]]; obj != nil {
						a.closures[obj] = lit
					}
				}
			}
		}
	})
}

// functions returns every function declaration and function literal.
func (a *analyzer) functions() []ast.Node {
	var out []ast.Node
	a.pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Body == nil {
			return
		}
		out = append(out, n)
	})
	return out
}

func body(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

// computeFacts finds each function's impurity reason, iterating to a
// fixpoint so same-package call chains resolve regardless of declaration
// order, then exports Impure facts.
func (a *analyzer) computeFacts() {
	a.local = make(map[ast.Node]string)
	a.objReason = make(map[*types.Func]string)
	fns := a.functions()
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if a.local[fn] != "" {
				continue
			}
			if reason := a.impureReason(body(fn), 0); reason != "" {
				a.local[fn] = reason
				changed = true
			}
		}
	}
	for _, fn := range fns {
		fd, ok := fn.(*ast.FuncDecl)
		if !ok || a.local[fn] == "" {
			continue
		}
		obj, ok := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		a.objReason[obj] = a.local[fn]
		_ = a.pass.ExportObjectFact(obj, &Impure{Reason: a.local[fn]})
	}
}

// maxDepth bounds closure-chain recursion in impureReason.
const maxDepth = 8

// impureReason scans a function body (skipping nested function literals,
// which taint only when called — resolved at their call sites) for the
// first impure operation and returns a short description, or "".
func (a *analyzer) impureReason(block *ast.BlockStmt, depth int) string {
	if block == nil || depth > maxDepth {
		return ""
	}
	reason := ""
	ast.Inspect(block, func(n ast.Node) bool {
		if reason != "" || n == nil {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if name := a.packageVarTarget(lhs); name != "" {
					reason = "mutates package variable " + name
					return false
				}
			}
		case *ast.IncDecStmt:
			if name := a.packageVarTarget(st.X); name != "" {
				reason = "mutates package variable " + name
				return false
			}
		case *ast.CallExpr:
			if r := a.callImpure(st, depth); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// packageVarTarget reports the name of the package-level variable an
// assignment target (possibly a field, index, or dereference chain)
// roots in, or "".
func (a *analyzer) packageVarTarget(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// Either pkg.Var (qualified identifier) or expr.Field; both
			// root in X unless Sel itself is the package-level var.
			if obj := a.pass.TypesInfo.Uses[x.Sel]; obj != nil && isPackageVar(obj) {
				return packageVarName(obj)
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := a.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = a.pass.TypesInfo.Defs[x]
			}
			if obj != nil && isPackageVar(obj) {
				return packageVarName(obj)
			}
			return ""
		default:
			return ""
		}
	}
}

func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func packageVarName(obj types.Object) string {
	return obj.Pkg().Name() + "." + obj.Name()
}

// timeImpure are the time functions that read the wall clock or arm
// wall-clock timers.
var timeImpure = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

// randAllowed mirrors seedrand's allowed-list: constructors for
// injectable generators do not touch the global source.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// callImpure reports why a call taints its caller, or "".
func (a *analyzer) callImpure(call *ast.CallExpr, depth int) string {
	// Immediately invoked literal: (func(){...})().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return a.impureReason(lit.Body, depth+1)
	}
	// Local closure called by name: analyze its literal's body.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			if lit, ok := a.closures[obj]; ok {
				if r := a.impureReason(lit.Body, depth+1); r != "" {
					return id.Name + " (" + truncate(r) + ")"
				}
				return ""
			}
		}
	}
	fn, ok := calleeObject(a.pass, call)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Pkg().Path() {
	case "time":
		if timeImpure[fn.Name()] {
			return "wall clock (time." + fn.Name() + ")"
		}
		return ""
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() != nil {
			return "" // method on an injected *rand.Rand — seeded, fine
		}
		if !randAllowed[fn.Name()] {
			return "global math/rand (rand." + fn.Name() + ")"
		}
		return ""
	}
	// Same-package functions resolve through the fixpoint cache; imported
	// ones through their exported Impure fact.
	if fn.Pkg() == a.pass.Pkg {
		for node, reason := range a.local {
			if fd, ok := node.(*ast.FuncDecl); ok && a.pass.TypesInfo.Defs[fd.Name] == fn && reason != "" {
				return shortName(fn) + " (" + truncate(reason) + ")"
			}
		}
		return ""
	}
	var fact Impure
	if a.pass.ImportObjectFact(fn, &fact) {
		return shortName(fn) + " (" + truncate(fact.Reason) + ")"
	}
	return ""
}

// ---- allocator check ----

// checkAllocators reports every impure method of a type implementing an
// in-scope Allocator interface, including the methods it promotes from
// embedded types; a method several allocators share is reported once.
func (a *analyzer) checkAllocators() {
	ifaces := a.allocatorIfaces()
	if len(ifaces) == 0 {
		return
	}
	reported := make(map[*types.Func]bool)
	scope := a.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || !implementsAny(named, ifaces) {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			m, ok := mset.At(i).Obj().(*types.Func)
			if !ok || m.Pkg() != a.pass.Pkg || reported[m] {
				continue
			}
			reason, ok := a.objReason[m]
			if !ok {
				continue
			}
			reported[m] = true
			a.pass.Reportf(m.Pos(),
				"allocator method %s is impure: %s — allocator decisions must be a pure function of events and seed",
				shortName(m), truncate(reason))
		}
	}
}

// allocatorIfaces collects every interface named "Allocator" defined in
// this package or an in-scope import.
func (a *analyzer) allocatorIfaces() []*types.Interface {
	var out []*types.Interface
	add := func(pkg *types.Package) {
		if pkg == nil || !inScope(pkg.Path()) {
			return
		}
		tn, ok := pkg.Scope().Lookup("Allocator").(*types.TypeName)
		if !ok {
			return
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			out = append(out, iface)
		}
	}
	add(a.pass.Pkg)
	for _, imp := range a.pass.Pkg.Imports() {
		add(imp)
	}
	return out
}

func implementsAny(named *types.Named, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		if iface.Empty() {
			continue
		}
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// ---- small helpers ----

// calleeObject resolves the called *types.Func.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return fn, ok
}

// shortName renders a function as "pkg.Func" or "pkg.Type.Method".
func shortName(fn *types.Func) string {
	s := strings.NewReplacer("(", "", ")", "", "*", "").Replace(fn.FullName())
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// truncate keeps nested reason chains readable.
func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}
