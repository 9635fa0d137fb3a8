package detect

import (
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	for _, f := range []pred.Family{pred.Count, pred.Xor, pred.Levels} {
		caps := Caps{Incremental: true, Payload: PayloadTruth}
		Register(Entry{
			Family: f, Modality: ModalityPossibly, Caps: caps,
			Batch: symPossibly, New: ownCore(PayloadTruth, symView), View: symView, Linearize: linearizeBool,
		})
		caps.NeedsFullTrace = true
		Register(Entry{
			Family: f, Modality: ModalityDefinitely, Caps: caps,
			Batch: symDefinitely, New: ownCore(PayloadTruth, symView), View: symView, Linearize: linearizeBool,
		})
	}
}

// symmetricSpec builds the level-set form of the Count, Xor and Levels
// families for a computation with n processes.
func symmetricSpec(n int, s pred.Spec) symmetric.Spec {
	switch s.Family {
	case pred.Xor:
		return symmetric.Xor(n)
	case pred.Count:
		return symmetric.FromFunc(n, func(m int) bool { return s.Rel.Eval(int64(m), s.K) })
	default: // pred.Levels
		levels := append([]int(nil), s.Levels...)
		sort.Ints(levels)
		out := levels[:0]
		for i, m := range levels {
			if i == 0 || m != levels[i-1] {
				out = append(out, m)
			}
		}
		return symmetric.Spec{N: n, Levels: out}
	}
}

func symPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	spec := symmetricSpec(c.NumProcs(), s)
	ok, cut, min, max, err := symmetric.PossiblyPar(c, spec, symmetric.Truth(varTruth(c, s.Var)), opt.Parallelism, tr)
	return Result{Holds: ok, Witness: cut, Min: min, Max: max, HasRange: true}, err
}

func symDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	spec := symmetricSpec(c.NumProcs(), s)
	ok, err := symmetric.DefinitelyPar(c, spec, symmetric.Truth(varTruth(c, s.Var)), opt.Parallelism, tr)
	return Result{Holds: ok}, err
}

// symView is the count, xor and levels families' view: the level set
// over the core's true-count.
func symView(s pred.Spec, core *RangeCore) *RangeView {
	spec := symmetricSpec(core.fr.procs, s)
	return newRangeView(s, &spec, core)
}

// linearizeBool replays the named 0/1 variable as Truth flags, with 0/1
// initial values in the config.
func linearizeBool(c *computation.Computation, s pred.Spec) ([]Event, Config, error) {
	init := make([]int64, c.NumProcs())
	for p := range init {
		if c.Var(s.Var, c.Initial(computation.ProcID(p)).ID) != 0 {
			init[p] = 1
		}
	}
	events := LinearizeEvents(c, func(e computation.Event, ev *Event) {
		ev.Truth = c.Var(s.Var, e.ID) != 0
	})
	return events, Config{Procs: c.NumProcs(), Init: init}, nil
}
