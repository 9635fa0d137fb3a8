// Package lint is the project-specific static-analysis suite behind
// cmd/gpdlint. It loads every package of the module with go/parser and
// go/types (source importer, stdlib only — no external analysis
// frameworks) and runs a pluggable set of analyzers that machine-check
// invariants the compiler cannot see but the paper's guarantees depend
// on: deterministic replayable computations (no escaping map-iteration
// order, no wall clock), strict layering between the theory core and
// the serving stack, no blocking work under mutexes, allocation-free
// hot paths, no dropped transport errors, and no internal API that only
// tests reach. Which packages a rule applies to is declared once, in the
// scope table (scopes.go).
//
// Findings print as "file:line: [rule] message". A finding is suppressed
// by a "//lint:ignore rule1,rule2 reason" comment on the offending line
// or on the line directly above it; the reason is mandatory, and a
// directive without one is itself reported under the "ignore" rule.
//
// Two further directives parameterize the hotalloc analyzer: a
// "//lint:hotpath" line in a function's doc comment marks it as a
// hot-path root — every function reachable from it through the static
// call graph must avoid avoidable allocations — and "//lint:coldpath"
// marks a slow-path boundary that reachability does not cross (for
// example the SLO breach dump, which is called from the ingest path but
// fires at most once per rule transition).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical file:line: [rule] message
// shape.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	// Fset positions every file of the load.
	Fset *token.FileSet
	// Path is the full import path.
	Path string
	// RelPath is the module-relative import path ("" for the module
	// root package). Analyzers classify packages by RelPath so fixture
	// modules under testdata exercise the same rules as the real one.
	RelPath string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression facts.
	Info *types.Info
}

// Pass is one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule. A rule is either per-package (Run) or
// whole-module (RunModule): module rules see every loaded package at
// once, which is what lets hotalloc follow calls across package
// boundaries.
type Analyzer struct {
	// Name is the rule name used in findings and ignore directives.
	Name string
	// Doc is a one-line description for -list and the README catalog.
	Doc string
	// Run reports the rule's findings for one package.
	Run func(*Pass)
	// RunModule reports the rule's findings over the whole load at once.
	RunModule func(*ModulePass)
}

// ModulePass is one (analyzer, whole load) run. The shared module index
// (function declarations + static call graph) is built lazily and
// reused by every module analyzer of the same Run.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	index    *moduleIndex
	findings *[]Finding
}

// Reportf records a finding at pos. Every package of one load shares a
// FileSet, so any package's Fset positions the whole module.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Pkgs[0].Fset.Position(pos),
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Index returns the load's function/call-graph index, building it on
// first use.
func (p *ModulePass) Index() *moduleIndex {
	if p.index == nil {
		p.index = buildModuleIndex(p.Pkgs)
	}
	return p.index
}

// Analyzers returns the full rule set, sorted by name.
func Analyzers() []*Analyzer {
	as := []*Analyzer{
		AnalyzerLockHeld,
		AnalyzerLayering,
		AnalyzerDetPTime,
		AnalyzerMapOrder,
		AnalyzerHotAlloc,
		AnalyzerErrDrop,
		AnalyzerTestOnly,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves a comma-separated rule list against the full set. All
// unknown names are rejected together, with the available rules listed,
// so a typo in a CI -rules flag fails loudly instead of silently
// narrowing the run.
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	index := make(map[string]*Analyzer, len(all))
	known := make([]string, 0, len(all))
	for _, a := range all {
		index[a.Name] = a
		known = append(known, a.Name)
	}
	var out []*Analyzer
	var unknown []string
	seen := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if seen[n] {
			continue
		}
		seen[n] = true
		a, ok := index[n]
		if !ok {
			unknown = append(unknown, strconv.Quote(n))
			continue
		}
		out = append(out, a)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("lint: unknown rule(s) %s (available: %s)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	return out, nil
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns the surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	covered, findings := directives(pkgs)
	var mp *ModulePass // module analyzers share one lazily built index
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, findings: &findings}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if mp == nil {
			mp = &ModulePass{Pkgs: pkgs, findings: &findings}
		}
		mp.Analyzer = a
		a.RunModule(mp)
	}
	findings = suppress(covered, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return findings
}

// Exit codes of the gpdlint driver.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding
	ExitError    = 2 // the load itself failed (parse or type error)
)

// Exec is the whole driver: load the patterns rooted at dir, run the
// analyzers, print the findings to out, print a per-rule count summary
// to errOut (always, success included), and return the process exit
// code.
func Exec(dir string, patterns []string, analyzers []*Analyzer, out, errOut io.Writer) int {
	pkgs, err := Load(patterns, dir)
	if err != nil {
		fmt.Fprintf(errOut, "gpdlint: %v\n", err)
		return ExitError
	}
	findings := Run(pkgs, analyzers)
	counts := make(map[string]int)
	for _, f := range findings {
		fmt.Fprintln(out, relativize(dir, f))
		counts[f.Rule]++
	}
	parts := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		parts = append(parts, fmt.Sprintf("%s %d", a.Name, counts[a.Name]))
	}
	if n := counts["ignore"]; n > 0 {
		parts = append(parts, fmt.Sprintf("ignore %d", n))
	}
	fmt.Fprintf(errOut, "gpdlint: %d finding(s) in %d package(s) (%s)\n",
		len(findings), len(pkgs), strings.Join(parts, ", "))
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// relativize shortens a finding's filename relative to dir for readable
// driver output.
func relativize(dir string, f Finding) Finding {
	base := dir
	if abs, err := filepath.Abs(dir); err == nil {
		base = abs
	}
	if rel, err := filepath.Rel(base, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		f.Pos.Filename = rel
	}
	return f
}

// hasPathPrefix reports whether the slash-separated path is prefix
// itself or lies underneath it. An empty prefix matches only the empty
// path (the module root package), not everything.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// relPathMatches reports whether a module-relative package path matches
// any of the given prefixes.
func relPathMatches(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if hasPathPrefix(rel, p) {
			return true
		}
	}
	return false
}
