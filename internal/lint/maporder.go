package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMapOrder flags map-range loops whose iteration order can
// escape the loop, in packages whose outputs must be deterministic.
//
// A loop escapes order when its body:
//
//   - appends an iteration-derived value to a slice declared outside the
//     loop, and the slice is not passed to a sort/slices.Sort* call later
//     in the same function ("collect then sort" is the sanctioned idiom);
//   - concatenates an iteration-derived value onto an outer string;
//   - feeds an iteration-derived argument to a method on outer state
//     whose result is discarded (reports, counters, trace sinks — a
//     fire-and-forget consumer sees the entries in map order; calls
//     whose results are consumed are treated as reads);
//   - returns an iteration-derived value (which entry wins the selection
//     depends on map order);
//   - exits early (break/return) after an order-dependent effect: a
//     write of an iteration-derived value to outer state, or a compound
//     accumulation on an outer variable (which iteration the exit lands
//     on — and so the counter value — depends on the order).
//
// Keyed writes (out[k] = v), commutative accumulation without an early
// exit (sum += v), and deleting the current key are order-independent
// and pass.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not escape into reports, counters, witnesses, or appended slices in deterministic packages",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !pass.Pkg.has(orderSensitive) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapType(pass.Pkg, rs.X) {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
}

// mapRange carries the per-loop analysis state.
type mapRange struct {
	pass *Pass
	fd   *ast.FuncDecl
	rs   *ast.RangeStmt
	// iterObjs are the loop's key/value variables.
	iterObjs map[types.Object]bool
	// rangedObj is the root of the ranged expression, for the delete-
	// current-key exemption and the messages.
	rangedObj types.Object
	// reported dedupes findings per site (chained calls share a start
	// position and would double-report).
	reported map[token.Pos]bool
}

func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	mr := &mapRange{pass: pass, fd: fd, rs: rs,
		iterObjs: make(map[types.Object]bool), reported: make(map[token.Pos]bool)}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Pkg.Info.Defs[id]; obj != nil {
				mr.iterObjs[obj] = true
			} else if obj := pass.Pkg.Info.Uses[id]; obj != nil {
				mr.iterObjs[obj] = true
			}
		}
	}
	if root := rootIdent(rs.X); root != nil {
		mr.rangedObj = pass.Pkg.Info.Uses[root]
	}
	mr.walkBody()
}

// iterDerived reports whether the expression varies with the iteration:
// it mentions a key/value variable or anything declared inside the loop
// body.
func (mr *mapRange) iterDerived(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if mentionsAny(mr.pass.Pkg, e, mr.iterObjs) {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if declaredWithin(mr.pass.Pkg, id, mr.rs) {
				found = true
			}
		}
		return !found
	})
	return found
}

// outerRoot resolves the root object of an lvalue or receiver chain and
// reports whether it lives outside the loop.
func (mr *mapRange) outerRoot(e ast.Expr) (types.Object, bool) {
	root := rootIdent(e)
	if root == nil {
		return nil, false
	}
	obj := mr.pass.Pkg.Info.Uses[root]
	if obj == nil {
		obj = mr.pass.Pkg.Info.Defs[root]
	}
	if obj == nil || mr.iterObjs[obj] {
		return nil, false
	}
	if obj.Pos() >= mr.rs.Pos() && obj.Pos() <= mr.rs.End() {
		return nil, false // loop-local
	}
	return obj, true
}

// sortedAfter reports whether obj is handed to a sort call after pos in
// the enclosing function — the collect-then-sort idiom.
func (mr *mapRange) sortedAfter(obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(mr.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !isSortCall(mr.pass.Pkg, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil {
				if o := mr.pass.Pkg.Info.Uses[root]; o == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// walkBody scans the loop body for order escapes, in source order so
// the early-exit check knows which effects precede an exit.
func (mr *mapRange) walkBody() {
	effect := false // an order-dependent effect seen so far
	var walk func(s ast.Stmt)
	walkList := func(list []ast.Stmt) {
		for _, s := range list {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if mr.checkAssign(s) {
				effect = true
			}
		case *ast.IncDecStmt:
			if _, outer := mr.outerRoot(s.X); outer {
				effect = true // commutative alone; order-dependent under an early exit
			}
		case *ast.ExprStmt:
			if mr.checkCall(s.X, true) {
				effect = true
			}
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && effect {
				mr.reportf(s.Pos(), "early break out of a range over %s after an order-dependent effect; which iterations ran depends on map order — iterate sorted keys instead", mr.ranged())
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if mr.iterDerived(res) {
					mr.reportf(s.Pos(), "return of an iteration-dependent value from inside a range over %s; which entry wins depends on map order — iterate sorted keys instead", mr.ranged())
					break
				}
			}
			if effect {
				mr.reportf(s.Pos(), "return from inside a range over %s after an order-dependent effect; which iterations ran depends on map order — iterate sorted keys instead", mr.ranged())
			}
		case *ast.IfStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			walkList(s.Body.List)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.ForStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			walkList(s.Body.List)
			if s.Post != nil {
				walk(s.Post)
			}
		case *ast.RangeStmt:
			// Nested loops are analyzed on their own when they range a
			// map; their statements still count as this loop's effects.
			walkList(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		case *ast.DeferStmt:
			if mr.checkCall(s.Call, true) {
				effect = true
			}
		case *ast.GoStmt:
			if mr.checkCall(s.Call, true) {
				effect = true
			}
		}
	}
	walkList(mr.rs.Body.List)
}

// checkAssign classifies one assignment inside the loop and reports the
// escaping shapes. It returns whether the assignment is an
// order-dependent effect for the early-exit analysis.
func (mr *mapRange) checkAssign(s *ast.AssignStmt) bool {
	effect := false
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if rhs != nil && mr.checkCall(rhs, false) {
			effect = true
		}
		obj, outer := mr.outerRoot(lhs)
		if !outer {
			continue
		}
		// Keyed writes are order-independent: out[k] = v.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && mr.iterDerived(ix.Index) {
			continue
		}
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(mr.pass.Pkg, call) {
				if mr.appendEscapes(obj, call) {
					mr.reportf(s.Pos(), "range over %s appends iteration-dependent values to %s without a later sort; the slice's element order is map order — sort it (or the keys) before it escapes", mr.ranged(), obj.Name())
				}
				effect = true
				continue
			}
			if mr.iterDerived(rhs) {
				effect = true
				if isStringType(obj) && s.Tok == token.ASSIGN {
					// plain reassignment x = x + k handled by ADD below
					// only when spelled +=; check explicitly here.
					if bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr); ok && bin.Op == token.ADD && mentionsObj(mr.pass.Pkg, bin, obj) {
						mr.reportf(s.Pos(), "range over %s concatenates iteration-dependent values onto %s; the result depends on map order — sort the keys first", mr.ranged(), obj.Name())
					}
				}
			}
		case token.ADD_ASSIGN:
			if isStringType(obj) && mr.iterDerived(rhs) {
				mr.reportf(s.Pos(), "range over %s concatenates iteration-dependent values onto %s; the result depends on map order — sort the keys first", mr.ranged(), obj.Name())
			}
			effect = true
		default: // other compound assignments accumulate
			effect = true
		}
	}
	return effect
}

// checkCall scans an expression for stateful-consumer calls: a method on
// outer state taking an iteration-derived argument sees the entries in
// map order. Only discarded calls (the expression is its own statement,
// or under go/defer) are reported as sinks — a call whose result is
// consumed is a read (c.EventAt(p, k) in a predicate), not a consumer.
// Returns whether anything order-dependent was found.
func (mr *mapRange) checkCall(e ast.Expr, discarded bool) bool {
	if e == nil {
		return false
	}
	effect := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, isDelete := builtinName(mr.pass.Pkg, call); isDelete && fn == "delete" {
			// delete(m, k) of the current key from the ranged map is the
			// sanctioned drain idiom; deleting from any other outer map
			// (or another key) makes the visit set order-dependent.
			if len(call.Args) == 2 {
				root := rootIdent(call.Args[0])
				sameMap := root != nil && mr.rangedObj != nil && mr.pass.Pkg.Info.Uses[root] == mr.rangedObj
				keyIsLoopKey := mr.isLoopKey(call.Args[1])
				if sameMap && keyIsLoopKey {
					return true
				}
				if mr.iterDerived(call.Args[1]) || sameMap {
					effect = true
				}
			}
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isSortCall(mr.pass.Pkg, call) {
			return true
		}
		recvRoot := callChainRoot(sel.X)
		if recvRoot == nil {
			return true
		}
		obj, outer := mr.outerRoot(recvRoot)
		if !outer {
			return true
		}
		// Only methods that can retain state matter; skip calls into the
		// standard library's pure value types via the package qualifier
		// (e.g. strconv.Itoa — obj is a PkgName, stateless by construction
		// only for funcs, so require a variable receiver).
		if _, isPkg := obj.(*types.PkgName); isPkg {
			return true
		}
		if !discarded {
			return true
		}
		for _, arg := range call.Args {
			if mr.iterDerived(arg) {
				effect = true
				mr.reportf(call.Pos(), "range over %s feeds iteration-dependent arguments to %s.%s; the consumer sees entries in map order — iterate sorted keys instead", mr.ranged(), obj.Name(), sel.Sel.Name)
				break
			}
		}
		return true
	})
	return effect
}

// appendEscapes reports whether the append call pushes iteration-derived
// values onto obj and no later sort fixes the order.
func (mr *mapRange) appendEscapes(obj types.Object, call *ast.CallExpr) bool {
	derived := false
	for _, arg := range call.Args[1:] {
		if mr.iterDerived(arg) {
			derived = true
			break
		}
	}
	if !derived {
		return false
	}
	return !mr.sortedAfter(obj, mr.rs.End())
}

// isLoopKey reports whether the expression is exactly the loop's key
// variable.
func (mr *mapRange) isLoopKey(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	key, ok := mr.rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	obj := mr.pass.Pkg.Info.Uses[id]
	if obj == nil {
		obj = mr.pass.Pkg.Info.Defs[id]
	}
	keyObj := mr.pass.Pkg.Info.Defs[key]
	if keyObj == nil {
		keyObj = mr.pass.Pkg.Info.Uses[key]
	}
	return obj != nil && obj == keyObj
}

// ranged renders the ranged expression for messages.
func (mr *mapRange) ranged() string {
	if mr.rangedObj != nil {
		return "map " + mr.rangedObj.Name()
	}
	return "a map"
}

func (mr *mapRange) reportf(pos token.Pos, format string, args ...any) {
	if mr.reported[pos] {
		return
	}
	mr.reported[pos] = true
	mr.pass.Reportf(pos, format, args...)
}

// mentionsObj reports whether the expression references the object.
func mentionsObj(pkg *Package, e ast.Expr, obj types.Object) bool {
	return mentionsAny(pkg, e, map[types.Object]bool{obj: true})
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	name, ok := builtinName(pkg, call)
	return ok && name == "append"
}

// builtinName resolves a call to a builtin function's name.
func builtinName(pkg *Package, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return "", false
	}
	return id.Name, true
}

// isStringType reports whether the object's type is string-kinded.
func isStringType(obj types.Object) bool {
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// callChainRoot peels a receiver chain down to the expression whose
// root identifier owns the state: a.b.C(x).D -> a.
func callChainRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = sel.X
				continue
			}
			return nil
		case *ast.SelectorExpr:
			if rootIdent(x) != nil {
				return x
			}
			e = x.X
		default:
			return e
		}
	}
}
