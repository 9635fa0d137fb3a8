package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHotAlloc is the enforcement arm of the zero-alloc ingest
// roadmap item: functions annotated //lint:hotpath in their doc comment
// are hot-path roots (the ingest/Append/Step paths), and every function
// reachable from a root over the static call graph must not allocate.
// Reported allocation sites:
//
//   - composite literals that escape: address-taken (&T{...}) or of
//     reference kind (slice/map literals);
//   - make of a slice/map/chan (a slice make with an explicit capacity
//     is the sanctioned preallocation and passes);
//   - append to a slice not preallocated with make(_, _, cap) in the
//     same function (growth reallocates mid-ingest);
//   - string <-> []byte conversions (each copies);
//   - function literals that capture outer variables (the closure is
//     heap-allocated per call).
//
// Calls through interfaces or function values are not followed — a
// detector behind detect.Detector is checked by annotating its own Step.
// A function annotated //lint:coldpath is a slow-path boundary (SLO
// breach dumps, error reporting): reachability does not enter it.
var AnalyzerHotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "no allocation (escaping composites, growing appends, string/[]byte conversions, capturing closures) on //lint:hotpath-reachable paths",
	RunModule: runHotAlloc,
}

func runHotAlloc(pass *ModulePass) {
	ix := pass.Index()
	roots := hotpathRoots(ix)
	if len(roots) == 0 {
		return
	}
	reached := ix.reachable(roots, func(fn *types.Func) bool {
		return hasDirective(ix.funcs[fn], coldpathDirective)
	})
	for _, fn := range ix.order {
		root, ok := reached[fn]
		if !ok {
			continue
		}
		checkHotFunc(pass, ix.funcs[fn], funcName(pass.Pkgs, fn), funcName(pass.Pkgs, root))
	}
}

// checkHotFunc reports the allocation sites of one hot-path function.
func checkHotFunc(pass *ModulePass, fi *funcInfo, name, root string) {
	pkg := fi.pkg
	// prealloc collects the objects of slices created with an explicit
	// capacity in this function; appends to them do not grow.
	prealloc := make(map[types.Object]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) < 3 {
				continue
			}
			if builtinName(pkg, call) != "make" {
				continue
			}
			if root := rootIdent(as.Lhs[i]); root != nil {
				if obj := objOf(pkg, root); obj != nil {
					prealloc[obj] = true
				}
			}
		}
		return true
	})

	where := " on the hot path from " + root
	if name == root {
		where = " (a //lint:hotpath root)"
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// &T{...}: the literal escapes to the heap.
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "escaping composite literal in %s%s; reuse a pooled or caller-provided value", name, where)
					return false // don't re-report the literal itself
				}
			}
		case *ast.CompositeLit:
			tv, ok := pkg.Info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice/map literal allocates in %s%s; hoist it out of the hot path", name, where)
			}
		case *ast.CallExpr:
			if bn := builtinName(pkg, n); bn != "" {
				switch bn {
				case "make":
					if len(n.Args) >= 3 {
						return true // preallocation with capacity: sanctioned
					}
					if tv, ok := pkg.Info.Types[n.Args[0]]; ok && tv.Type != nil {
						switch tv.Type.Underlying().(type) {
						case *types.Slice, *types.Map, *types.Chan:
							pass.Reportf(n.Pos(), "make allocates in %s%s; preallocate with capacity outside the hot path", name, where)
						}
					}
				case "append":
					if len(n.Args) == 0 {
						return true
					}
					base := rootIdent(n.Args[0])
					if base != nil {
						if obj := objOf(pkg, base); obj != nil && prealloc[obj] {
							return true
						}
					}
					pass.Reportf(n.Pos(), "append may grow its backing array in %s%s; preallocate with make(_, _, cap)", name, where)
				}
				return true
			}
			// string <-> []byte conversions.
			if kind := byteStringConversion(pkg, n); kind != "" {
				pass.Reportf(n.Pos(), "%s conversion copies in %s%s; keep one representation through the hot path", kind, name, where)
			}
		case *ast.FuncLit:
			if captures := closureCaptures(pkg, n); len(captures) > 0 {
				pass.Reportf(n.Pos(), "closure captures %s in %s%s; a capturing closure allocates per call — hoist it or pass state explicitly", captures[0], name, where)
			}
			return false // literal bodies are separate functions
		}
		return true
	})
}

// byteStringConversion classifies a conversion between string and
// []byte; returns "" for anything else.
func byteStringConversion(pkg *Package, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return ""
	}
	argTV, ok := pkg.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return ""
	}
	to, from := tv.Type.Underlying(), argTV.Type.Underlying()
	if isByteSlice(to) && isString(from) {
		return "string->[]byte"
	}
	if isString(to) && isByteSlice(from) {
		return "[]byte->string"
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// closureCaptures returns the names of outer variables a function
// literal references, sorted by first use.
func closureCaptures(pkg *Package, lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Captured = declared outside the literal, not package-level.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if v.Parent() == pkg.Types.Scope() || v.Parent() == types.Universe {
			return true
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}
