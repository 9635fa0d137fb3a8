package lint

// trait is a property of a package that scopes one or more rules.
type trait uint8

const (
	// theoryCore marks the computation/lattice model and the detection
	// algorithms of the paper. Keeping it free of the serving stack and
	// the network (layering) is what makes the detectors replayable and
	// testable in isolation.
	theoryCore trait = 1 << iota
	// deterministic marks packages whose behaviour must be a pure
	// function of their inputs (detptime): the replay/agreement tests
	// (Detect vs oracles, incremental vs batch) compare runs event for
	// event, and a wall-clock read or a draw from the global random
	// source would silently break that without failing any unit test.
	deterministic
	// orderSensitive marks packages whose outputs are compared run for
	// run (maporder): the theory core and detector kernel (replay and
	// agreement tests diff reports, witnesses and work counters), the
	// serving layers (stats snapshots and flight records feed goldens
	// and CI scrapes), and this suite itself (golden tests diff its
	// findings). There a map range whose iteration order reaches an
	// output is a reproducibility bug — the exact class that leaked into
	// conjunctive's work counters before the elimination order was
	// canonicalized.
	orderSensitive
	// serving marks the network stack, the multiplexer it fans into, and
	// every binary (errdrop): a silently dropped I/O error here turns a
	// broken peer into a wedged session (a deadline that never armed, a
	// reply that never flushed) instead of a loud disconnect.
	serving
)

// scopes is the one table mapping a module-relative package prefix to
// the traits of every package at or below it; packages not listed carry
// none. Analyzers classify by module-relative path so fixture modules
// under testdata exercise the same rules as the real one. Adding or
// deleting a package is a one-line edit here.
var scopes = map[string]trait{
	"internal/computation": theoryCore | deterministic,
	"internal/vclock":      theoryCore | deterministic,
	"internal/lattice":     theoryCore | deterministic | orderSensitive,
	"internal/cnf":         theoryCore | deterministic | orderSensitive,
	"internal/chains":      theoryCore | deterministic | orderSensitive,
	"internal/core":        theoryCore | deterministic | orderSensitive,
	"internal/slicing":     theoryCore | deterministic | orderSensitive,
	"internal/sat":         theoryCore | deterministic,
	"internal/subsetsum":   theoryCore | deterministic,
	"internal/maxflow":     theoryCore | deterministic | orderSensitive,
	"internal/matching":    theoryCore | deterministic,
	"internal/linear":      theoryCore | deterministic | orderSensitive,
	"internal/conjunctive": theoryCore | deterministic | orderSensitive,
	"internal/pred":        theoryCore | deterministic | orderSensitive,
	"internal/gen":         theoryCore | deterministic,
	"internal/par":         theoryCore,
	"internal/simulator":   deterministic,
	"internal/experiments": deterministic,
	"internal/detect":      orderSensitive,
	"internal/obs":         orderSensitive,
	"internal/lint":        orderSensitive,
	"internal/stream":      orderSensitive | serving,
	"internal/mux":         orderSensitive | serving,
	"cmd":                  serving,
	"examples":             serving,
}

// has reports whether the package lies under a prefix carrying trait t.
func (p *Package) has(t trait) bool {
	for prefix, traits := range scopes {
		if traits&t != 0 && hasPathPrefix(p.RelPath, prefix) {
			return true
		}
	}
	return false
}
