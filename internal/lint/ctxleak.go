package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// concurrentPkgs are the module-relative prefixes whose goroutines must
// be tied to a shutdown path: the serving stack and the simulator are
// long-lived multi-tenant processes, and an untracked goroutine there
// is a leak that Shutdown/Close cannot wait for (the monitor-shutdown
// race of PR 1 started exactly this way). The parallelized theory
// packages are on the list too: their worker pools must join before the
// kernel returns (the ordered-merge determinism argument assumes all
// concurrent work has completed), so an untied goroutine there is not
// just a leak but a correctness hole.
var concurrentPkgs = []string{
	"internal/stream", "internal/simulator",
	"internal/par", "internal/lattice", "internal/maxflow",
	"internal/chains", "internal/linear", "internal/core", "internal/detect",
}

// AnalyzerCtxLeak enforces that every `go` statement in a concurrent
// package has a shutdown tie: either a sync.WaitGroup Add earlier in
// the launching function, or a callee body that visibly participates
// in shutdown (defer wg.Done(), a receive from a struct{} done/stop
// channel, or ctx.Done()).
var AnalyzerCtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "every goroutine in the serving stack and the parallelized theory packages is tied to a shutdown path (WaitGroup, done channel, or context)",
	Run:  runCtxLeak,
}

func runCtxLeak(pass *Pass) {
	if !relPathMatches(pass.Pkg.RelPath, concurrentPkgs) {
		return
	}
	decls := packageFuncDecls(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncForLeaks(pass, fn, decls)
			return true
		})
	}
}

// packageFuncDecls maps each function/method object of the package to
// its declaration, so a `go m.run(...)` launch can be checked against
// run's body.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// checkFuncForLeaks examines every go statement in one function.
func checkFuncForLeaks(pass *Pass, fn *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	var addPositions []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(pass, call, "Add") {
			addPositions = append(addPositions, call.Pos())
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		for _, p := range addPositions {
			if p < g.Pos() {
				return true // wg.Add(...) precedes the launch
			}
		}
		if calleeHasShutdownTie(pass, g.Call, decls) {
			return true
		}
		pass.Reportf(g.Pos(),
			"goroutine has no shutdown tie: no WaitGroup.Add before launch, and the callee neither defers Done, receives on a done channel, nor watches ctx.Done()")
		return true
	})
}

// isWaitGroupCall reports whether call is method name on a
// sync.WaitGroup receiver.
func isWaitGroupCall(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// calleeHasShutdownTie resolves the launched function and scans its
// body for a shutdown tie.
func calleeHasShutdownTie(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) bool {
	var body *ast.BlockStmt
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		var ident *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			ident = fun
		case *ast.SelectorExpr:
			ident = fun.Sel
		}
		if ident == nil {
			return false
		}
		obj, ok := pass.Pkg.Info.Uses[ident].(*types.Func)
		if !ok {
			return false
		}
		decl, ok := decls[obj]
		if !ok || decl.Body == nil {
			return false
		}
		body = decl.Body
	}
	return bodyHasShutdownTie(pass, body)
}

// bodyHasShutdownTie scans a function body for any of the accepted
// shutdown ties.
func bodyHasShutdownTie(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isWaitGroupCall(pass, n.Call, "Done") {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isSignalChannel(pass, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if isContextDone(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSignalChannel reports whether e has type chan struct{} (any
// direction) — the done/stop channel idiom.
func isSignalChannel(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isContextDone reports whether call is ctx.Done() on a
// context.Context.
func isContextDone(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}
