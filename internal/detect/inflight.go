package detect

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	Register(Entry{
		Family:   pred.InFlight,
		Caps:     Caps{Incremental: true, Sliceable: true, Payload: PayloadDelta},
		Possibly: inflightPossibly, Definitely: inflightDefinitely,
		New: ownCore(PayloadDelta, sumView), View: sumView, Linearize: linearizeInFlight,
		SlicePossibly: inflightSlicePossibly, SliceDefinitely: inflightSliceDefinitely,
	})
}

func inflightPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	ok, cut, min, max, err := relsum.PossiblyWeightedPar(c, 0, relsum.InFlightWeight(c), s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok, Witness: cut, Min: min, Max: max, HasRange: true}, err
}

func inflightDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	min, max := relsum.InFlightRangePar(c, opt.Parallelism, tr)
	ok, err := relsum.DefinitelyWeightedPar(c, 0, relsum.InFlightWeight(c), s.Rel, s.K, opt.Parallelism, tr)
	return Result{Holds: ok, Min: min, Max: max, HasRange: true}, err
}

// The channel-occupancy detector is the sum view over a core of
// per-event deltas (sends − receives, which an instrumented application
// reports directly in Event.Val). Occupancy always starts at zero, so
// the family takes no initial values; the deltas are unit-step whenever
// every event sends or receives at most one message, which is what
// makes the ±1 range tracker an exact online detector for
// inflight == k.

// linearizeInFlight replays channel occupancy: each event's Val is its
// sends − receives, derived from the computation's messages.
func linearizeInFlight(c *computation.Computation, _ pred.Spec) ([]Event, Config, error) {
	w := relsum.InFlightWeight(c)
	events := LinearizeEvents(c, func(e computation.Event, ev *Event) {
		ev.Val = w(e)
	})
	return events, Config{Procs: c.NumProcs()}, nil
}
