package lint

import (
	"go/ast"
	"go/types"
)

// bannedTimeFuncs are the wall-clock entry points of package time.
// (Deterministic code may still use time.Duration values handed in by a
// caller; only reading the clock is forbidden.)
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// AnalyzerDetPTime keeps deterministic packages deterministic.
var AnalyzerDetPTime = &Analyzer{
	Name: "detptime",
	Doc:  "no wall clock (time.Now/Since/...) or global rand source in deterministic packages",
	Run:  runDetPTime,
}

func runDetPTime(pass *Pass) {
	if !pass.Pkg.has(deterministic) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. on an explicitly seeded *rand.Rand or a
			// time.Duration) are fine; only package-level functions of
			// the banned packages read ambient state.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in deterministic package %s breaks replayable detection; take the value as a parameter",
						fn.Name(), pass.Pkg.RelPath)
				}
			case "math/rand", "math/rand/v2":
				// Constructors (rand.New, rand.NewSource, ...) build the
				// explicitly seeded generators deterministic code should
				// use; everything else draws from the shared global
				// source.
				if len(fn.Name()) < 3 || fn.Name()[:3] != "New" {
					pass.Reportf(sel.Pos(),
						"global rand.%s in deterministic package %s breaks replayable detection; use an explicitly seeded *rand.Rand",
						fn.Name(), pass.Pkg.RelPath)
				}
			}
			return true
		})
	}
}
