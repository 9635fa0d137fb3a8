package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerTestOnly flags a package-level identifier or method declared
// under internal/ that no non-test code of the load references. The
// loader skips _test.go files, so every use it sees is a production use
// (cmd/, examples/ and the nested bench/ module included): code only
// tests reach is kept alive by its tests alone. A use inside the
// identifier's own declaration, or of a type inside its own methods,
// does not count. A method is exempt when its receiver type implements
// an interface with that method — declared in the load or anything it
// imports, or spelled as an interface literal in the load: dynamic
// dispatch reaches it where no identifier does (fmt calling String, a
// type assertion to interface{ Witness() ... }). A reference
// implementation that tests compare against stays, with a
// //lint:ignore testonly directive naming the test. Run it over the
// whole module (./...); a narrower load misses the uses outside it.
var AnalyzerTestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "every package-level identifier or method under internal/ has a non-test reference",
	RunModule: runTestOnly,
}

func runTestOnly(pass *ModulePass) {
	ifaces := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !isGeneric(t) {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	scanned := make(map[*types.Package]bool)
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if !scanned[p] {
			scanned[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
			for _, imp := range p.Imports() {
				addScope(imp)
			}
		}
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pass.Pkgs {
		addScope(pkg.Types)
		for e, tv := range pkg.Info.Types {
			if _, lit := e.(*ast.InterfaceType); lit {
				addIface(tv.Type)
			}
		}
		declUnits(pkg, func(n ast.Node, names []*ast.Ident) {
			self := recvType(pkg.Info.Defs[names[0]]) // a method's own receiver type
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					obj := pkg.Info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if obj != nil && obj != self && (obj.Pos() < n.Pos() || obj.Pos() > n.End()) {
						used[obj] = true
					}
				}
				return true
			})
		})
	}
	for _, pkg := range pass.Pkgs {
		if !hasPathPrefix(pkg.RelPath, "internal") {
			continue
		}
		declUnits(pkg, func(_ ast.Node, names []*ast.Ident) {
			for _, id := range names {
				obj := pkg.Info.Defs[id]
				if obj == nil || used[obj] || id.Name == "_" || id.Name == "init" || dispatched(ifaces, obj) {
					continue
				}
				name := obj.Name()
				if tn := recvType(obj); tn != nil {
					name = tn.Name() + "." + name
				}
				pass.Reportf(id.Pos(), "%s.%s has no non-test reference; delete it with the tests that keep it alive, or mark a reference implementation //lint:ignore testonly naming the test", pkg.RelPath, name)
			}
		})
	}
}

// declUnits calls fn for every unit a use can be internal to — a
// function, or one spec of a type, var or const block — with the
// identifiers it declares.
func declUnits(pkg *Package, fn func(n ast.Node, names []*ast.Ident)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(fd, []*ast.Ident{fd.Name})
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s, []*ast.Ident{s.Name})
				case *ast.ValueSpec:
					fn(s, s.Names)
				}
			}
		}
	}
}

// recvType is the named type a method is declared on; nil for anything
// that is not a method.
func recvType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// dispatched reports whether obj is a method its receiver type offers
// to an interface that has a method of that name.
func dispatched(ifaces map[*types.Interface]bool, obj types.Object) bool {
	tn := recvType(obj)
	if tn == nil {
		return false
	}
	t := tn.Type()
	for it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, obj.Name()); m != nil &&
			(isGeneric(t) || types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
