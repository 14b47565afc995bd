// Package ctxflow enforces the context-propagation discipline behind the
// *Context API family (sim.RunContext, sched.RunContext,
// partalloc.SimulateContext/ExecuteContext, cli.WithInterrupt): a
// cancellation signal must flow from main() down to the event loop
// without any layer silently re-rooting it.
//
// Three families of findings:
//
//   - context.Background()/context.TODO() in library code — root contexts
//     belong in main packages (cmd/, examples/) and tests only;
//   - context.Background()/context.TODO() inside a function that already
//     receives a Context, anywhere — the received ctx must be used;
//   - a function holding a ctx calling a callee that ignores it: either
//     the callee has a *Context sibling that should be called instead, or
//     (via cross-package CreatesRoot facts) the callee transitively
//     manufactures its own context.Background, severing cancellation.
//
// The facts make the last check compositional: when cmd/engined is
// analyzed, the analyzer already knows which helpers deep in the library
// re-root the context, without whole-program analysis.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"partalloc/internal/analysis"
)

// CreatesRoot is the fact exported for a function that calls
// context.Background or context.TODO, directly or via a callee. Via is a
// short human-readable chain for diagnostics.
type CreatesRoot struct {
	Via string
}

// AFact marks CreatesRoot as a fact type.
func (*CreatesRoot) AFact() {}

func (f *CreatesRoot) String() string { return "creates-root: " + f.Via }

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbids context.Background()/TODO() outside main packages and, in functions " +
		"that receive a ctx, flags callees that drop it (*Context sibling available, or " +
		"the callee re-roots the context — transitively, via CreatesRoot facts)",
	Run:       run,
	FactTypes: []analysis.Fact{(*CreatesRoot)(nil)},
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	a := &analyzer{pass: pass, closures: make(map[types.Object]*ast.FuncLit)}
	a.indexClosures()
	a.computeFacts()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				a.walkFunc(fd.Body, a.declSig(fd), a.declObj(fd))
			}
		}
	}
	return nil
}

// inScope restricts the check to this module plus the ctxflow fixtures.
func inScope(pkgPath string) bool {
	return pkgPath == "partalloc" || strings.HasPrefix(pkgPath, "partalloc/") ||
		strings.Contains(pkgPath, "ctxflow_fixture")
}

// rootExempt reports whether pkg may call context.Background()/TODO() at
// the top of its call trees: main packages (cmd/, examples/) own the
// process lifetime and are where root contexts are created.
func rootExempt(pkg *types.Package) bool {
	return pkg.Name() == "main" || strings.HasPrefix(pkg.Path(), "partalloc/cmd/")
}

type analyzer struct {
	pass *analysis.Pass
	// closures maps a local variable to the function literal assigned to
	// it, so `mkCtx()` resolves to its body for root-creation analysis.
	closures map[types.Object]*ast.FuncLit
	// local caches the root-creation chain of this package's functions and
	// closures during the fixpoint ("" = does not create a root context).
	local map[ast.Node]string
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

// computeFacts finds each declared function's root-creation chain,
// iterating to a fixpoint so same-package call chains resolve regardless
// of declaration order, then exports CreatesRoot facts.
func (a *analyzer) computeFacts() {
	a.local = make(map[ast.Node]string)
	fns := a.functions()
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if a.local[fn] != "" {
				continue
			}
			if via := a.rootVia(body(fn), 0); via != "" {
				a.local[fn] = via
				changed = true
			}
		}
	}
	for _, fn := range fns {
		fd, ok := fn.(*ast.FuncDecl)
		if !ok || a.local[fn] == "" {
			continue
		}
		obj := a.pass.TypesInfo.Defs[fd.Name]
		if obj == nil {
			continue
		}
		_ = a.pass.ExportObjectFact(obj, &CreatesRoot{Via: a.local[fn]})
	}
}

// maxDepth bounds closure-chain recursion in rootVia.
const maxDepth = 8

// rootVia scans a function body (skipping nested function literals,
// which re-root only when called — resolved at their call sites) for the
// first context.Background/TODO and returns the call chain, or "".
func (a *analyzer) rootVia(block *ast.BlockStmt, depth int) string {
	if block == nil || depth > maxDepth {
		return ""
	}
	via := ""
	ast.Inspect(block, func(n ast.Node) bool {
		if via != "" || n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if v := a.callVia(call, depth); v != "" {
				via = v
				return false
			}
		}
		return true
	})
	return via
}

// callVia reports the chain through which a call creates a root context,
// or "".
func (a *analyzer) callVia(call *ast.CallExpr, depth int) string {
	// Immediately invoked literal: (func(){...})().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return a.rootVia(lit.Body, depth+1)
	}
	// Local closure called by name: analyze its literal's body.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			if lit, ok := a.closures[obj]; ok {
				if v := a.rootVia(lit.Body, depth+1); v != "" {
					return id.Name + " (" + truncate(v) + ")"
				}
				return ""
			}
		}
	}
	name := a.pass.FuncNameOf(call)
	if name == "context.Background" || name == "context.TODO" {
		return name
	}
	fn, ok := calleeObject(a.pass, call)
	if !ok {
		return ""
	}
	// Same-package functions resolve through the fixpoint cache; imported
	// ones through their exported CreatesRoot fact.
	if fn.Pkg() == a.pass.Pkg {
		for node, via := range a.local {
			if fd, ok := node.(*ast.FuncDecl); ok && a.pass.TypesInfo.Defs[fd.Name] == fn && via != "" {
				return shortName(fn) + " (" + truncate(via) + ")"
			}
		}
		return ""
	}
	var fact CreatesRoot
	if a.pass.ImportObjectFact(fn, &fact) {
		return shortName(fn) + " (" + truncate(fact.Via) + ")"
	}
	return ""
}

// ---- call-site checks ----

// walkFunc checks one function body. ctx is the innermost
// context.Context parameter lexically in scope (nil if none); encl is the
// function's own object, used to avoid suggesting a *Context sibling to
// itself. Nested literals are walked here, not as separate roots, so the
// enclosing ctx stays visible inside them.
func (a *analyzer) walkFunc(block *ast.BlockStmt, sig *types.Signature, encl types.Object) {
	ctx := ctxParam(sig)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			litSig, _ := a.pass.TypesInfo.Types[lit].Type.(*types.Signature)
			if ctxParam(litSig) == nil {
				litSig = sig // keep the enclosing ctx in scope
			}
			a.walkFunc(lit.Body, litSig, encl)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.checkCall(call, ctx, encl)
		return true
	}
	ast.Inspect(block, walk)
}

// checkCall applies the three call-site rules to one call expression.
func (a *analyzer) checkCall(call *ast.CallExpr, ctx *types.Var, encl types.Object) {
	name := a.pass.FuncNameOf(call)
	if name == "context.Background" || name == "context.TODO" {
		if ctx != nil {
			a.pass.Reportf(call.Pos(), "function receives %s; use it instead of %s()", ctx.Name(), name)
		} else if !rootExempt(a.pass.Pkg) && !a.pass.InTestFile(call.Pos()) {
			// Tests, like main packages, own their run's lifetime and may
			// create root contexts.
			a.pass.Reportf(call.Pos(), "%s() outside a main package: accept a Context from the caller", name)
		}
		return
	}
	if ctx == nil {
		return
	}
	fn, ok := calleeObject(a.pass, call)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || ctxParam(sig) != nil {
		return // callee accepts a ctx; propagation is the caller's argument choice
	}
	if sib := contextSibling(fn); sib != nil && sib != encl {
		a.pass.Reportf(call.Pos(), "%s drops %s: call %s instead", shortName(fn), ctx.Name(), shortName(sib))
		return
	}
	if via := a.calleeRootVia(fn); via != "" {
		a.pass.Reportf(call.Pos(), "%s creates its own root context (%s) while %s is in scope; thread the ctx through",
			shortName(fn), truncate(via), ctx.Name())
	}
}

// calleeRootVia resolves a callee's root-creation chain from the local
// fixpoint cache (same package) or its imported fact.
func (a *analyzer) calleeRootVia(fn *types.Func) string {
	if fn.Pkg() == a.pass.Pkg {
		for node, via := range a.local {
			if fd, ok := node.(*ast.FuncDecl); ok && a.pass.TypesInfo.Defs[fd.Name] == fn {
				return via
			}
		}
		return ""
	}
	var fact CreatesRoot
	if a.pass.ImportObjectFact(fn, &fact) {
		return fact.Via
	}
	return ""
}

// contextSibling returns the *Context variant of fn — a function or
// method named fn.Name()+"Context" in the same scope that accepts a
// context.Context — or nil.
func contextSibling(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	want := fn.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		named := namedRecv(recv.Type())
		if named == nil {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == want && acceptsCtx(m) {
				return m
			}
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	if sib, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && acceptsCtx(sib) {
		return sib
	}
	return nil
}

func acceptsCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && ctxParam(sig) != nil
}

// ctxParam returns the first context.Context parameter of sig, or nil.
func ctxParam(sig *types.Signature) *types.Var {
	if sig == nil {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isCtxType(p.Type()) {
			return p
		}
	}
	return nil
}

func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func namedRecv(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (a *analyzer) declSig(fd *ast.FuncDecl) *types.Signature {
	if obj := a.declObj(fd); obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

func (a *analyzer) declObj(fd *ast.FuncDecl) types.Object {
	if obj := a.pass.TypesInfo.Defs[fd.Name]; obj != nil {
		return obj
	}
	return nil
}

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
func shortName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	s := strings.NewReplacer("(", "", ")", "", "*", "").Replace(fn.FullName())
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// truncate keeps nested chains readable.
func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}
