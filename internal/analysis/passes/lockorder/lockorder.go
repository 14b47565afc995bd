// Package lockorder enforces the mutex discipline the sharded engine's
// throughput argument rests on: shard and ledger mutexes are held for
// short, CPU-bound critical sections only.
//
// Three families of findings:
//
//   - a sync lock (Mutex, RWMutex, WaitGroup, Cond, Once) copied by value
//     — parameters, assignments, call arguments, returns, range values;
//   - Lock without a matching Unlock: a return while a mutex is held with
//     no deferred unlock, a re-Lock of an already-held mutex, or a
//     function that locks and never unlocks at all;
//   - a blocking (goroutine-parking) operation while a mutex is held:
//     channel sends/receives, selects without default, time.Sleep,
//     WaitGroup.Wait, Cond.Wait, file I/O — and, through cross-package
//     Blocks facts, any call whose callee transitively does one of those
//     (parallel.RunCells parks on its WaitGroup, cli.SaveCheckpoint
//     writes files, ...).
//
// The facts make the third check compositional: when the engine package
// is analyzed, the analyzer already knows which helpers in parallel, cli,
// and the allocator layers may park, without whole-program analysis.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"partalloc/internal/analysis"
)

// Blocks is the fact exported for a function that may park the calling
// goroutine (directly or via a callee). Reason is a short human-readable
// chain for diagnostics.
type Blocks struct {
	Reason string
}

// AFact marks Blocks as a fact type.
func (*Blocks) AFact() {}

func (f *Blocks) String() string { return "blocks: " + f.Reason }

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "forbids lock copies, missed unlocks on return paths, and blocking calls " +
		"(channel ops, waits, file I/O — transitively, via Blocks facts) while a mutex is held",
	Run:       run,
	FactTypes: []analysis.Fact{(*Blocks)(nil)},
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	a := &analyzer{pass: pass, closures: make(map[types.Object]*ast.FuncLit)}
	a.indexClosures()
	a.computeFacts()
	a.checkCopies()
	for _, fn := range a.functions() {
		a.checkHeldRegions(fn)
	}
	return nil
}

// inScope restricts the check to this module plus the lockorder fixtures.
func inScope(pkgPath string) bool {
	return pkgPath == "partalloc" || strings.HasPrefix(pkgPath, "partalloc/") ||
		strings.Contains(pkgPath, "lockorder_fixture")
}

type analyzer struct {
	pass *analysis.Pass
	// closures maps a local variable to the function literal assigned to
	// it, so `saveLocked()` resolves to its body for blocking analysis.
	closures map[types.Object]*ast.FuncLit
	// local caches the blocking reason of this package's functions and
	// closures during the fixpoint ("" = not blocking).
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

// functions returns every function declaration and standalone function
// literal in the package, each analyzed as an independent scope.
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

// computeFacts finds each declared function's blocking reason, iterating
// to a fixpoint so same-package call chains resolve regardless of
// declaration order, then exports Blocks facts for other packages.
func (a *analyzer) computeFacts() {
	a.local = make(map[ast.Node]string)
	fns := a.functions()
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if a.local[fn] != "" {
				continue
			}
			if reason := a.blockingReason(body(fn), 0); reason != "" {
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
		obj := a.pass.TypesInfo.Defs[fd.Name]
		if obj == nil {
			continue
		}
		// Unsupported shapes (generic instantiations of local types) are
		// simply not exported; same-package analysis already has a.local.
		_ = a.pass.ExportObjectFact(obj, &Blocks{Reason: a.local[fn]})
	}
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

// maxBlockDepth bounds closure-chain recursion in blockingReason.
const maxBlockDepth = 8

// blockingReason scans a function body (skipping nested function
// literals and goroutine launches) for the first goroutine-parking
// operation and returns a short description, or "".
func (a *analyzer) blockingReason(block *ast.BlockStmt, depth int) string {
	if block == nil || depth > maxBlockDepth {
		return ""
	}
	reason := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if reason != "" || n == nil {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			return false // separate scope; blocks only if called, handled at call sites
		case *ast.GoStmt:
			return false // launching a goroutine never parks the launcher
		case *ast.SendStmt:
			reason = "channel send"
			return false
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				reason = "channel receive"
				return false
			}
		case *ast.RangeStmt:
			if _, ok := a.pass.TypesInfo.Types[st.X].Type.Underlying().(*types.Chan); ok {
				reason = "range over channel"
				return false
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range st.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				reason = "select without default"
				return false
			}
			// Non-blocking select: scan only the clause bodies (the comm
			// operations themselves cannot park).
			for _, cl := range st.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.CallExpr:
			if r := a.callBlocks(st, depth); r != "" {
				reason = r
				return false
			}
		}
		return true
	}
	ast.Inspect(block, walk)
	return reason
}

// blockingStdlib maps fully qualified callees to their parking reason.
var blockingStdlib = map[string]string{
	"time.Sleep":                    "time.Sleep",
	"(*sync.WaitGroup).Wait":        "WaitGroup.Wait",
	"(*sync.Cond).Wait":             "Cond.Wait",
	"os.ReadFile":                   "file I/O",
	"os.WriteFile":                  "file I/O",
	"os.Open":                       "file I/O",
	"os.OpenFile":                   "file I/O",
	"os.Create":                     "file I/O",
	"os.CreateTemp":                 "file I/O",
	"os.Remove":                     "file I/O",
	"os.RemoveAll":                  "file I/O",
	"os.Rename":                     "file I/O",
	"os.MkdirAll":                   "file I/O",
	"os.ReadDir":                    "file I/O",
	"(*os.File).Read":               "file I/O",
	"(*os.File).Write":              "file I/O",
	"(*os.File).Close":              "file I/O",
	"(*os.File).Sync":               "file I/O",
	"(*os/exec.Cmd).Run":            "subprocess wait",
	"(*os/exec.Cmd).Wait":           "subprocess wait",
	"(*os/exec.Cmd).Output":         "subprocess wait",
	"(*os/exec.Cmd).CombinedOutput": "subprocess wait",
}

// callBlocks reports why a call expression may park, or "".
func (a *analyzer) callBlocks(call *ast.CallExpr, depth int) string {
	// Local closure called by name: analyze its literal's body.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			if lit, ok := a.closures[obj]; ok {
				if r := a.blockingReason(lit.Body, depth+1); r != "" {
					return "calls " + id.Name + " (" + r + ")"
				}
				return ""
			}
		}
	}
	name := a.pass.FuncNameOf(call)
	if name == "" {
		return ""
	}
	if r, ok := blockingStdlib[name]; ok {
		if r == "file I/O" || r == "subprocess wait" {
			return r + " (" + shortCallee(name) + ")"
		}
		return r
	}
	fn, ok := calleeObject(a.pass, call)
	if !ok {
		return ""
	}
	// Same-package functions resolve through the fixpoint cache; imported
	// ones through their exported Blocks fact.
	if fn.Pkg() == a.pass.Pkg {
		for node, reason := range a.local {
			if fd, ok := node.(*ast.FuncDecl); ok && a.pass.TypesInfo.Defs[fd.Name] == fn && reason != "" {
				return "calls " + shortCallee(name) + " (" + truncate(reason) + ")"
			}
		}
		return ""
	}
	var fact Blocks
	if a.pass.ImportObjectFact(fn, &fact) {
		return "calls " + shortCallee(name) + " (" + truncate(fact.Reason) + ")"
	}
	return ""
}

// calleeObject resolves the called *types.Func, like FuncNameOf but
// returning the object.
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

// shortCallee strips the package path, keeping "pkg.Func" / "Type.Method".
func shortCallee(full string) string {
	s := strings.TrimPrefix(strings.TrimSuffix(strings.TrimPrefix(full, "("), ")"), "*")
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

// ---- held-region analysis ----

// lockEvent is one lexical event inside a function body.
type lockEvent struct {
	pos  token.Pos
	kind int // eLock, eUnlock, eDeferUnlock, eBlocking, eReturn
	expr string
	what string // blocking reason
}

const (
	eLock = iota
	eUnlock
	eDeferUnlock
	eBlocking
	eReturn
)

// lockMethods classifies sync lock method names.
var lockMethods = map[string]int{
	"Lock": eLock, "RLock": eLock,
	"Unlock": eUnlock, "RUnlock": eUnlock,
}

// checkHeldRegions walks one function scope lexically, tracking which
// mutexes are held, and reports blocking operations and returns inside
// held regions plus locks that are never released.
func (a *analyzer) checkHeldRegions(fn ast.Node) {
	block := body(fn)
	if block == nil {
		return
	}
	var events []lockEvent
	var collect func(n ast.Node) bool
	collect = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			if st != fn {
				return false // nested scopes analyzed independently
			}
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if expr, kind, ok := a.lockCall(st.Call); ok && kind == eUnlock {
				events = append(events, lockEvent{pos: st.Pos(), kind: eDeferUnlock, expr: expr})
				return false
			}
		case *ast.ReturnStmt:
			events = append(events, lockEvent{pos: st.Pos(), kind: eReturn})
		case *ast.SendStmt:
			events = append(events, lockEvent{pos: st.Pos(), kind: eBlocking, what: "channel send"})
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				events = append(events, lockEvent{pos: st.Pos(), kind: eBlocking, what: "channel receive"})
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range st.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				events = append(events, lockEvent{pos: st.Pos(), kind: eBlocking, what: "select without default"})
			}
			for _, cl := range st.Body.List {
				for _, s := range cl.(*ast.CommClause).Body {
					ast.Inspect(s, collect)
				}
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := a.pass.TypesInfo.Types[st.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					events = append(events, lockEvent{pos: st.Pos(), kind: eBlocking, what: "range over channel"})
				}
			}
		case *ast.CallExpr:
			if expr, kind, ok := a.lockCall(st); ok {
				events = append(events, lockEvent{pos: st.Pos(), kind: kind, expr: expr})
				return true
			}
			if r := a.callBlocks(st, 0); r != "" {
				events = append(events, lockEvent{pos: st.Pos(), kind: eBlocking, what: r})
			}
		}
		return true
	}
	ast.Inspect(block, collect)

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	type heldLock struct {
		pos      token.Pos
		deferred bool
		released bool
	}
	held := make(map[string]*heldLock)
	anyHeld := func() (string, bool) {
		// Deterministic pick for the diagnostic message.
		var names []string
		for name, h := range held {
			if !h.released {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return "", false
		}
		sort.Strings(names)
		return names[0], true
	}
	for _, ev := range events {
		switch ev.kind {
		case eLock:
			if h, ok := held[ev.expr]; ok && !h.released {
				a.pass.Reportf(ev.pos, "%s locked again while already held (deadlock)", ev.expr)
				continue
			}
			held[ev.expr] = &heldLock{pos: ev.pos}
		case eDeferUnlock:
			if h, ok := held[ev.expr]; ok {
				h.deferred = true
			} else {
				// defer before the Lock (idiomatic only in the reverse
				// order, but harmless): treat as covering a later lock.
				held[ev.expr] = &heldLock{pos: ev.pos, deferred: true, released: true}
			}
		case eUnlock:
			if h, ok := held[ev.expr]; ok {
				h.released = true
			}
		case eBlocking:
			if name, ok := anyHeld(); ok {
				a.pass.Reportf(ev.pos, "blocking operation (%s) while %s is held", ev.what, name)
			}
		case eReturn:
			for name, h := range held {
				if !h.released && !h.deferred {
					a.pass.Reportf(ev.pos, "return while %s is held (no deferred Unlock on this path)", name)
					h.released = true // one report per lock
				}
			}
		}
	}
	for name, h := range held {
		if !h.released && !h.deferred {
			a.pass.Reportf(h.pos, "%s.Lock without a matching Unlock in this function", name)
		}
	}
}

// lockCall classifies a call as Lock/Unlock on a sync primitive and
// returns the receiver's source expression.
func (a *analyzer) lockCall(call *ast.CallExpr) (expr string, kind int, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	kind, isLockName := lockMethods[sel.Sel.Name]
	if !isLockName {
		return "", 0, false
	}
	fn, isFn := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", 0, false
	}
	full := fn.FullName()
	if !strings.Contains(full, "sync.Mutex") && !strings.Contains(full, "sync.RWMutex") &&
		!strings.Contains(full, "sync.Locker") {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// ---- lock-copy analysis ----

// checkCopies flags sync primitives copied by value.
func (a *analyzer) checkCopies() {
	info := a.pass.TypesInfo
	reportIfCopy := func(e ast.Expr, what string) {
		if e == nil {
			return
		}
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			return // fresh values (composite literals, calls) carry no held state
		}
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return
		}
		if name := lockerIn(tv.Type); name != "" {
			a.pass.Reportf(e.Pos(), "%s copies %s by value; use a pointer", what, name)
		}
	}

	a.pass.Preorder([]ast.Node{
		(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil),
		(*ast.AssignStmt)(nil), (*ast.CallExpr)(nil),
		(*ast.ReturnStmt)(nil), (*ast.RangeStmt)(nil),
	}, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.FuncDecl:
			a.checkFuncSig(st.Recv, st.Type)
		case *ast.FuncLit:
			a.checkFuncSig(nil, st.Type)
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				return // multi-value call; covered at the callee's returns
			}
			for i, rhs := range st.Rhs {
				// Discarding to _ stores nothing, so nothing is copied.
				if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				reportIfCopy(rhs, "assignment")
			}
		case *ast.CallExpr:
			if _, _, isLock := a.lockCall(st); isLock {
				return
			}
			for _, arg := range st.Args {
				reportIfCopy(arg, "call argument")
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				reportIfCopy(res, "return")
			}
		case *ast.RangeStmt:
			if st.Value != nil {
				if tv, ok := info.Types[st.Value]; ok && tv.Type != nil {
					if name := lockerIn(tv.Type); name != "" {
						a.pass.Reportf(st.Value.Pos(), "range value copies %s by value; iterate by index or pointer", name)
					}
				}
			}
		}
	})
}

// checkFuncSig flags lock-containing value parameters, receivers, and
// results in a function signature.
func (a *analyzer) checkFuncSig(recv *ast.FieldList, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			tv, ok := a.pass.TypesInfo.Types[f.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if name := lockerIn(tv.Type); name != "" {
				a.pass.Reportf(f.Type.Pos(), "%s passes %s by value; use a pointer", what, name)
			}
		}
	}
	check(recv, "receiver")
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// lockerIn reports the name of the sync primitive contained by value in
// t, or "". Pointers, maps, slices, and channels do not copy their
// referents, so they pass.
func lockerIn(t types.Type) string {
	return lockerInDepth(t, make(map[types.Type]bool))
}

func lockerInDepth(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once":
				return "sync." + obj.Name()
			}
			return "" // other sync types (Map, Pool) manage their own state
		}
		if name := lockerInDepth(named.Underlying(), seen); name != "" {
			return name
		}
		return ""
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := lockerInDepth(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockerInDepth(u.Elem(), seen)
	}
	return ""
}
