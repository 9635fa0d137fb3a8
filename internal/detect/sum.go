package detect

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	caps := Caps{Incremental: true, Payload: PayloadValue}
	Register(Entry{
		Family: pred.Sum, Modality: ModalityPossibly, Caps: caps,
		Batch: sumPossibly, New: ownCore(PayloadValue, sumView), View: sumView, Linearize: linearizeSum,
	})
	caps.NeedsFullTrace = true
	Register(Entry{
		Family: pred.Sum, Modality: ModalityDefinitely, Caps: caps,
		Batch: sumDefinitely, New: ownCore(PayloadValue, sumView), View: sumView, Linearize: linearizeSum,
	})
}

func sumPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	ok, cut, min, max, err := relsum.PossiblyPar(c, s.Var, s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok, Witness: cut, Min: min, Max: max, HasRange: true}, err
}

func sumDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	ok, err := relsum.DefinitelyPar(c, s.Var, s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok}, err
}

// sumView is the sum and inflight families' view: the relop and
// threshold over the core's sum.
func sumView(s pred.Spec, core *RangeCore) *RangeView { return newRangeView(s, nil, core) }

// linearizeSum replays the named variable: events carry its value after
// the event, the config its per-process initial values.
func linearizeSum(c *computation.Computation, s pred.Spec) ([]Event, Config, error) {
	init := make([]int64, c.NumProcs())
	for p := range init {
		init[p] = c.Var(s.Var, c.Initial(computation.ProcID(p)).ID)
	}
	events := LinearizeEvents(c, func(e computation.Event, ev *Event) {
		ev.Val = c.Var(s.Var, e.ID)
	})
	return events, Config{Procs: c.NumProcs(), Init: init}, nil
}
