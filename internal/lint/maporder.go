package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMapOrder flags map-range loops whose iteration order can
// escape the loop, in packages whose outputs are compared run for run.
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
	Name:      "maporder",
	Doc:       "map iteration order must not escape into reports, counters, witnesses, or appended slices in order-sensitive packages",
	RunModule: runMapOrder,
}

func runMapOrder(pass *ModulePass) {
	ix := pass.Index()
	for _, fn := range ix.order {
		fi := ix.funcs[fn]
		if !fi.pkg.has(orderSensitive) {
			continue
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMapType(fi.pkg, rs.X) {
				checkMapRange(pass, fi, rs)
			}
			return true
		})
	}
}

// mapRange carries the per-loop analysis state.
type mapRange struct {
	pass *ModulePass
	pkg  *Package
	body *ast.BlockStmt // the enclosing function's, for the later-sort search
	rs   *ast.RangeStmt
	// iterObjs are the loop's key/value variables; keyObj is the key's.
	iterObjs map[types.Object]bool
	keyObj   types.Object
	// rangedObj is the root of the ranged expression, for the delete-
	// current-key exemption and the messages.
	rangedObj types.Object
	// reported dedupes findings per site (chained calls share a start
	// position and would double-report).
	reported map[token.Pos]bool
}

// checkMapRange scans one loop body for order escapes with a source-order
// walk, so the early-exit check knows which effects precede an exit.
// Function literals are skipped: they run later or elsewhere, not as
// this loop's control flow.
func checkMapRange(pass *ModulePass, fi *funcInfo, rs *ast.RangeStmt) {
	mr := &mapRange{pass: pass, pkg: fi.pkg, body: fi.decl.Body, rs: rs,
		iterObjs: make(map[types.Object]bool), reported: make(map[token.Pos]bool)}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" && objOf(mr.pkg, id) != nil {
			mr.iterObjs[objOf(mr.pkg, id)] = true
		}
	}
	if id, ok := rs.Key.(*ast.Ident); ok {
		mr.keyObj = objOf(mr.pkg, id)
	}
	if root := rootIdent(rs.X); root != nil {
		mr.rangedObj = objOf(mr.pkg, root)
	}
	effect := false // an order-dependent effect seen so far
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			effect = mr.checkAssign(s) || effect
		case *ast.IncDecStmt:
			if _, outer := mr.outerRoot(s.X); outer {
				effect = true // commutative alone; order-dependent under an early exit
			}
		case *ast.ExprStmt:
			effect = mr.checkCall(s.X, true) || effect
		case *ast.DeferStmt:
			effect = mr.checkCall(s.Call, true) || effect
		case *ast.GoStmt:
			effect = mr.checkCall(s.Call, true) || effect
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
		}
		return true
	})
}

// inLoop reports whether the object is declared inside the loop.
func (mr *mapRange) inLoop(obj types.Object) bool {
	return obj.Pos() >= mr.rs.Pos() && obj.Pos() <= mr.rs.End()
}

// iterDerived reports whether the expression varies with the iteration:
// it mentions a key/value variable or anything declared inside the loop.
func (mr *mapRange) iterDerived(e ast.Expr) bool {
	found := false
	if e != nil {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !found {
				obj := objOf(mr.pkg, id)
				found = obj != nil && (mr.iterObjs[obj] || mr.inLoop(obj))
			}
			return !found
		})
	}
	return found
}

// outerRoot resolves the root object of an lvalue or receiver chain and
// reports whether it lives outside the loop.
func (mr *mapRange) outerRoot(e ast.Expr) (types.Object, bool) {
	root := rootIdent(e)
	if root == nil {
		return nil, false
	}
	obj := objOf(mr.pkg, root)
	if obj == nil || mr.iterObjs[obj] || mr.inLoop(obj) {
		return nil, false
	}
	return obj, true
}

// sortedAfter reports whether obj is handed to a sort call after the
// loop in the enclosing function — the collect-then-sort idiom.
func (mr *mapRange) sortedAfter(obj types.Object) bool {
	found := false
	ast.Inspect(mr.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found && call.Pos() >= mr.rs.End() && isSortCall(mr.pkg, call) {
			for _, arg := range call.Args {
				if root := rootIdent(arg); root != nil && objOf(mr.pkg, root) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
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
		concat := false
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(mr.pkg, call) == "append" {
				if mr.appendEscapes(call) && !mr.sortedAfter(obj) {
					mr.reportf(s.Pos(), "range over %s appends iteration-dependent values to %s without a later sort; the slice's element order is map order — sort it (or the keys) before it escapes", mr.ranged(), obj.Name())
				}
				effect = true
				continue
			}
			if !mr.iterDerived(rhs) {
				continue
			}
			effect = true
			// x = x + k spells the concatenation out.
			bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
			concat = s.Tok == token.ASSIGN && ok && bin.Op == token.ADD && mentions(mr.pkg, bin, obj)
		case token.ADD_ASSIGN:
			concat = mr.iterDerived(rhs)
			effect = true
		default: // other compound assignments accumulate
			effect = true
		}
		if concat && isString(obj.Type().Underlying()) {
			mr.reportf(s.Pos(), "range over %s concatenates iteration-dependent values onto %s; the result depends on map order — sort the keys first", mr.ranged(), obj.Name())
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
	effect := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if builtinName(mr.pkg, call) == "delete" {
			// delete(m, k) of the current key from the ranged map is the
			// sanctioned drain idiom; deleting from any other outer map
			// (or another key) makes the visit set order-dependent.
			if len(call.Args) == 2 {
				root := rootIdent(call.Args[0])
				sameMap := root != nil && mr.rangedObj != nil && objOf(mr.pkg, root) == mr.rangedObj
				if sameMap && mr.isLoopKey(call.Args[1]) {
					return true
				}
				effect = effect || sameMap || mr.iterDerived(call.Args[1])
			}
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !discarded || isSortCall(mr.pkg, call) {
			return true
		}
		recvRoot := callChainRoot(sel.X)
		if recvRoot == nil {
			return true
		}
		// Only methods on outer state can retain it; a package qualifier
		// (strconv.Itoa) is no receiver.
		obj, outer := mr.outerRoot(recvRoot)
		if _, isPkg := obj.(*types.PkgName); !outer || isPkg {
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
// values.
func (mr *mapRange) appendEscapes(call *ast.CallExpr) bool {
	for _, arg := range call.Args[1:] {
		if mr.iterDerived(arg) {
			return true
		}
	}
	return false
}

// isLoopKey reports whether the expression is exactly the loop's key
// variable.
func (mr *mapRange) isLoopKey(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && mr.keyObj != nil && objOf(mr.pkg, id) == mr.keyObj
}

// ranged renders the ranged expression for messages.
func (mr *mapRange) ranged() string {
	if mr.rangedObj != nil {
		return "map " + mr.rangedObj.Name()
	}
	return "a map"
}

func (mr *mapRange) reportf(pos token.Pos, format string, args ...any) {
	if !mr.reported[pos] {
		mr.reported[pos] = true
		mr.pass.Reportf(pos, format, args...)
	}
}

// callChainRoot peels a receiver chain down to the expression whose
// root identifier owns the state: a.b.C(x).D -> a.
func callChainRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
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
