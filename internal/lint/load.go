package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Load parses and type-checks the packages matched by the patterns,
// resolved relative to dir. Patterns are directories ("." , "./cmd/x")
// or recursive globs ("./...", "./internal/..."); matched packages are
// returned for analysis, while module-local imports outside the
// patterns are loaded transparently. Test files are not analyzed: the
// invariants gpdlint enforces are production-code invariants.
//
// Loading uses only the standard library: go/parser for syntax,
// go/types for semantics, with module-local imports resolved from
// source inside the module and everything else through the stdlib
// source importer.
func Load(patterns []string, dir string) ([]*Package, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve %q: %w", dir, err)
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	l, err := moduleLoader(modRoot, modPath)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	want, err := l.expand(patterns, abs)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range want {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// loaderCache memoizes one loader per module root for the lifetime of
// the process. Parsing and type-checking the module (and, through the
// source importer, its slice of the standard library) dominates a lint
// run; sharing the loader means tests that load the same fixture module
// more than once pay for it once. The cache assumes sources do not
// change underneath a running process, which holds for both the CLI and
// the test suite.
var loaderCache = struct {
	sync.Mutex
	byRoot map[string]*loader
}{byRoot: make(map[string]*loader)}

// moduleLoader returns the process-wide loader for a module root,
// creating and indexing it on first use.
func moduleLoader(modRoot, modPath string) (*loader, error) {
	loaderCache.Lock()
	defer loaderCache.Unlock()
	if l, ok := loaderCache.byRoot[modRoot]; ok {
		return l, nil
	}
	l := &loader{
		fset:     token.NewFileSet(),
		modRoot:  modRoot,
		modPath:  modPath,
		dirs:     make(map[string]string),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if err := l.index(); err != nil {
		return nil, err
	}
	loaderCache.byRoot[modRoot] = l
	return l, nil
}

// loader loads and memoizes the module's packages.
type loader struct {
	mu       sync.Mutex // serializes Load calls sharing this cached loader
	fset     *token.FileSet
	modRoot  string
	modPath  string
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*Package
	checking map[string]bool // import-cycle guard
	std      types.ImporterFrom
}

// index walks the module tree once and records every package directory,
// so imports of unrequested module packages still resolve from source.
func (l *loader) index() error {
	return filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, err := filepath.Rel(l.modRoot, p)
			if err != nil {
				return err
			}
			l.dirs[l.importPath(filepath.ToSlash(rel))] = p
		}
		return nil
	})
}

// importPath maps a module-relative slash path to the import path.
func (l *loader) importPath(rel string) string {
	if rel == "." || rel == "" {
		return l.modPath
	}
	return l.modPath + "/" + rel
}

// expand resolves the command-line patterns into import paths.
func (l *loader) expand(patterns []string, base string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, p
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		root := filepath.Join(base, filepath.FromSlash(pat))
		rel, err := filepath.Rel(l.modRoot, root)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: pattern %q leaves the module rooted at %s", pat, l.modRoot)
		}
		prefix := l.importPath(filepath.ToSlash(rel))
		matched := false
		for path := range l.dirs {
			if path == prefix || (recursive && hasPathPrefix(path, prefix)) {
				add(path)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matches no packages", pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Import resolves an import for the type checker: module-local packages
// load from source here, everything else goes to the stdlib source
// importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || hasPathPrefix(path, l.modPath) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("lint: no package %s in module %s", path, l.modPath)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: scan %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	pkg := &Package{
		Fset:    l.fset,
		Path:    path,
		RelPath: rel,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
