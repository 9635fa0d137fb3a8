package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the lightweight dataflow layer under the module-wide
// analyzers: an index of every declared function, a static call graph
// over it, reachability from annotated roots, and a source-order
// per-function traversal that threads a held-lock state through the
// nodes it visits. It stays stdlib-only, like the loader.

// funcInfo is one declared function or method with a body.
type funcInfo struct {
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

// moduleIndex is the whole-load view shared by module analyzers.
type moduleIndex struct {
	// funcs maps every declared function object of the load to its body.
	funcs map[*types.Func]*funcInfo
	// callees is the static call graph: direct calls and method calls
	// whose callee resolves to a declared function. Calls through
	// interface values or function-typed variables are not resolved —
	// the documented approximation of the framework.
	callees map[*types.Func][]*types.Func
	// order lists the callers in deterministic (position) order so graph
	// walks report findings stably.
	order []*types.Func
}

// buildModuleIndex indexes the load's functions and their static calls.
func buildModuleIndex(pkgs []*Package) *moduleIndex {
	ix := &moduleIndex{
		funcs:   make(map[*types.Func]*funcInfo),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ix.funcs[obj] = &funcInfo{obj: obj, pkg: pkg, decl: fd}
				ix.order = append(ix.order, obj)
			}
		}
	}
	sort.Slice(ix.order, func(i, j int) bool {
		return ix.funcs[ix.order[i]].decl.Pos() < ix.funcs[ix.order[j]].decl.Pos()
	})
	for _, caller := range ix.order {
		fi := ix.funcs[caller]
		seen := make(map[*types.Func]bool)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(fi.pkg, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, declared := ix.funcs[callee]; !declared {
				return true // stdlib, interface method, or bodiless decl
			}
			seen[callee] = true
			ix.callees[caller] = append(ix.callees[caller], callee)
			return true
		})
	}
	return ix
}

// staticCallee resolves the function object a call statically dispatches
// to: a plain identifier, a package-qualified function, or a method on a
// concrete receiver. Interface methods resolve to the interface's
// method object, which has no declaration in the index and therefore
// ends the walk there.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// reachable returns every function reachable from the roots over the
// static call graph, mapped to the root it was first reached from (BFS
// in deterministic order, so the attribution is stable). Functions for
// which skip returns true are not entered — the traversal's explicit
// boundary (nil means no boundary).
func (ix *moduleIndex) reachable(roots []*types.Func, skip func(*types.Func) bool) map[*types.Func]*types.Func {
	out := make(map[*types.Func]*types.Func)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, ok := out[r]; !ok {
			out[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range ix.callees[fn] {
			if _, ok := out[callee]; ok {
				continue
			}
			if skip != nil && skip(callee) {
				continue
			}
			out[callee] = out[fn]
			queue = append(queue, callee)
		}
	}
	return out
}

// funcName renders a function object as pkgrel.(Recv).Name for
// readable findings.
func funcName(pkgs []*Package, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	for _, pkg := range pkgs {
		if pkg.Types == fn.Pkg() && pkg.RelPath != "" {
			return pkg.RelPath + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}

// objOf resolves an identifier's object from uses or defs.
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// builtinName resolves a call to a builtin function's name; "" for any
// other call.
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return ""
	}
	return id.Name
}

// rootIdent returns the base identifier of a possibly selected/indexed
// expression: rootIdent(a.b[i].c) = a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentions reports whether the expression references the object.
func mentions(pkg *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isMapType reports whether the expression's type is (or points to) a
// map.
func isMapType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem().Underlying()
	}
	_, isMap := t.(*types.Map)
	return isMap
}

// isSortCall reports whether the call is into package sort or slices —
// the canonical way iteration-order escapes are fixed.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// hotpathDirective marks a function as a hot-path root for the hotalloc
// rule; coldpathDirective marks an explicit slow-path boundary (breach
// handling, error dumps) that hot-path reachability does not enter, even
// when the hot path calls it directly.
const (
	hotpathDirective  = "//lint:hotpath"
	coldpathDirective = "//lint:coldpath"
)

// hasDirective reports whether the function's doc comment carries the
// given directive on a line of its own (a trailing explanation after a
// space is allowed).
func hasDirective(fi *funcInfo, directive string) bool {
	if fi == nil || fi.decl.Doc == nil {
		return false
	}
	for _, c := range fi.decl.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// hotpathRoots returns the functions annotated //lint:hotpath in their
// doc comment, in declaration order.
func hotpathRoots(ix *moduleIndex) []*types.Func {
	var roots []*types.Func
	for _, fn := range ix.order {
		if hasDirective(ix.funcs[fn], hotpathDirective) {
			roots = append(roots, fn)
		}
	}
	return roots
}

// lockFlow walks one function body in source order, threading the set
// of held locks through every node it visits, and reports each
// operation that can block on a peer or the scheduler while the set is
// non-empty to onBlock. Locks are identified by lockKeyOf (struct field
// path or variable name), so two methods locking the same field agree
// on identity. Lock/unlock pairs are matched lexically, a defer-unlocked
// lock stays held to the end of the function, and function literals are
// walked with a fresh held set: they run on another goroutine or after
// release.
type lockFlow struct {
	pkg  *Package
	held []string // acquisition-ordered lock keys
	// onBlock fires for a channel send or receive, a select, a range
	// over a channel, time.Sleep, and any call into package net or
	// net/http (functions and methods alike, so a method call through
	// the net.Conn interface counts), with the locks held at that site.
	// sync.Cond.Wait is deliberately not a blocking operation: it
	// releases the lock while blocked.
	onBlock func(what string, held []string, pos token.Pos)
}

// lockKeyOf resolves the lock identity behind the receiver expression of
// a Lock/Unlock call: "Type.field" when the mutex is a struct field,
// otherwise the variable's name.
func lockKeyOf(pkg *Package, recv ast.Expr) (string, bool) {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// x.mu — prefer the owning named type of the field.
		if selection, ok := pkg.Info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			t := selection.Recv()
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + selection.Obj().Name(), true
			}
			return selection.Obj().Name(), true
		}
		// pkg.mu — a package-level mutex referenced with a qualifier.
		if obj, ok := pkg.Info.Uses[x.Sel]; ok {
			return obj.Name(), true
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[x]; ok {
			return obj.Name(), true
		}
	}
	return "", false
}

// mutexTransition classifies a call as a lock-state transition on a
// sync.Mutex/RWMutex and returns the lock identity.
func mutexTransition(pkg *Package, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	key, ok = lockKeyOf(pkg, sel.X)
	return key, acquire, ok
}

func (w *lockFlow) acquire(k string) {
	for _, h := range w.held {
		if h == k {
			return
		}
	}
	w.held = append(w.held, k)
}

func (w *lockFlow) release(k string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == k {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

func (w *lockFlow) block(what string, pos token.Pos) {
	if len(w.held) > 0 {
		w.onBlock(what, w.held, pos)
	}
}

// walk traverses the node in source order (a CFG approximation:
// branches are visited one after the other with the same held set).
func (w *lockFlow) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			(&lockFlow{pkg: w.pkg, onBlock: w.onBlock}).walk(n.Body)
			return false
		case *ast.DeferStmt:
			if _, _, ok := mutexTransition(w.pkg, n.Call); ok {
				return false // defer mu.Unlock(): held to function end
			}
		case *ast.CallExpr:
			if key, acq, ok := mutexTransition(w.pkg, n); ok {
				if acq {
					w.acquire(key)
				} else {
					w.release(key)
				}
			} else if fn := staticCallee(w.pkg, n); fn != nil && fn.Pkg() != nil {
				switch path := fn.Pkg().Path(); {
				case path == "time" && fn.Name() == "Sleep":
					w.block("time.Sleep", n.Pos())
				case path == "net" || path == "net/http":
					w.block(path+" I/O ("+fn.Name()+")", n.Pos())
				}
			}
		case *ast.SendStmt:
			w.block("channel send", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block("channel receive", n.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := w.pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.block("range over channel", n.Pos())
				}
			}
		case *ast.SelectStmt:
			// The select is the blocking operation; its comm clauses'
			// own sends and receives are not reported a second time.
			w.block("select", n.Pos())
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					w.walk(s)
				}
			}
			return false
		}
		return true
	})
}
