package lint

import (
	"strconv"
	"strings"
)

// layerRule forbids a set of import edges: any package carrying Trait in
// the scope table, or under one of the Layers prefixes (module-
// relative), importing anything under one of the Forbid prefixes is a
// finding. Forbid entries are module-relative unless they name a
// standard-library path (no dot in the first segment is not a reliable
// test, so entries are tagged explicitly with "std:"), and the special
// entry "<module>" forbids every module-local import.
type layerRule struct {
	Trait  trait
	Layers []string
	Forbid []string
	Why    string
}

// layerRules is the single table declaring the allowed shape of the
// import graph. Everything not forbidden here is allowed.
var layerRules = []layerRule{
	{
		Trait:  theoryCore,
		Forbid: []string{"internal/stream", "std:net", "std:net/http"},
		Why:    "theory core stays serving-free",
	},
	{
		// The slicing theory builds on the computation model alone: the
		// detector kernel and the serving stack import it, never the
		// other way round. Keeping the edge one-directional is what lets
		// the slice constructor be checked against the lattice oracle
		// with no serving machinery in scope.
		Layers: []string{"internal/slicing"},
		Forbid: []string{"internal/detect", "internal/mux"},
		Why:    "the slicing theory stays kernel- and multiplexer-free",
	},
	{
		// The observability substrate is dependency-free by contract:
		// every other package may import it, so it may import none of
		// them (and certainly not the network).
		Layers: []string{"internal/obs"},
		Forbid: []string{"<module>", "std:net", "std:net/http"},
		Why:    "obs is the dependency-free substrate",
	},
	{
		// The detector kernel sits between the theory core and the
		// serving stack: sessions resolve detectors through its
		// registry, never the other way round. Theory imports are fine;
		// the serving stack and the network are not, which is what
		// keeps every registered detector replayable offline.
		Layers: []string{"internal/detect"},
		Forbid: []string{"internal/stream", "std:net", "std:net/http"},
		Why:    "the detector kernel stays serving-free",
	},
	{
		// The predicate multiplexer sits between the detector kernel and
		// the stream transport: stream attaches mux groups to sessions,
		// never the other way round. Keeping mux transport-free is what
		// lets the routing and projection layer be tested (and reasoned
		// about) against offline oracles alone.
		Layers: []string{"internal/mux"},
		Forbid: []string{"internal/stream", "std:net", "std:net/http"},
		Why:    "the predicate multiplexer stays transport-free",
	},
}

// AnalyzerLayering enforces the import-graph table above.
var AnalyzerLayering = &Analyzer{
	Name: "layering",
	Doc:  "theory core must not import the serving stack (stream) or the network",
	Run:  runLayering,
}

func runLayering(pass *Pass) {
	rel := pass.Pkg.RelPath
	modPath := strings.TrimSuffix(pass.Pkg.Path, "/"+rel)
	if rel == "" {
		modPath = pass.Pkg.Path
	}
	for _, rule := range layerRules {
		if !pass.Pkg.has(rule.Trait) && !relPathMatches(rel, rule.Layers) {
			continue
		}
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if bad, label := forbidden(path, modPath, rule.Forbid); bad {
					pass.Reportf(imp.Pos(), "package %s must not import %s (%s)",
						rel, label, rule.Why)
				}
			}
		}
	}
}

// forbidden reports whether the imported path hits one of the rule's
// forbidden prefixes, and with what human-readable label.
func forbidden(imported, modPath string, forbid []string) (bool, string) {
	local := imported == modPath || hasPathPrefix(imported, modPath)
	relImported := ""
	if local {
		relImported = strings.TrimPrefix(strings.TrimPrefix(imported, modPath), "/")
	}
	for _, f := range forbid {
		switch {
		case f == "<module>":
			if local {
				return true, "module-local packages"
			}
		case strings.HasPrefix(f, "std:"):
			if !local && hasPathPrefix(imported, strings.TrimPrefix(f, "std:")) {
				return true, imported
			}
		default:
			if local && hasPathPrefix(relImported, f) {
				return true, f
			}
		}
	}
	return false, ""
}
