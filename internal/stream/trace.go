package stream

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Bridging a sealed offline computation into the streaming world: replay
// its events as the wire Events an instrumented application would have
// produced. Used by the e2e drivers and the agreement tests, which replay
// generator/simulator traces through a Session and cross-check the
// verdicts against the offline detectors. The linearization itself lives
// in the detector kernel (detect.LinearizeEvents), shared with the
// StrategyReplay route of gpd.Detect.

// Trace linearizes the non-initial events of a sealed computation in
// topological order, filling each wire event's payload via fill (set
// Truth or Val from the event's variables). Sessions re-establish causal
// order themselves, so any permutation of the result is also a valid
// input stream.
func Trace(c *computation.Computation, fill func(e computation.Event, ev *Event)) []Event {
	return detect.LinearizeEvents(c, fill)
}

// linearize replays c through the registry's own linearization for the
// family (the one StrategyReplay uses), so sessions, replay and tests
// cannot drift apart on what an event of a payload carries.
func linearize(c *computation.Computation, ps pred.Spec) ([]Event, []int64) {
	entry, _ := detect.Lookup(ps.Family, detect.ModalityPossibly)
	events, cfg, err := entry.Linearize(c, ps)
	if err != nil {
		panic(err) // the range families' linearizations cannot fail
	}
	return events, cfg.Init
}

// SumTrace replays the named variable: events carry its value, and the
// returned init slice holds the per-process initial values for the Spec.
func SumTrace(c *computation.Computation, name string) (events []Event, init []int64) {
	return linearize(c, pred.Spec{Family: pred.Sum, Var: name})
}

// BoolTrace replays the named 0/1 variable as Truth flags, with 0/1
// initial values for the Spec.
func BoolTrace(c *computation.Computation, name string) (events []Event, init []int64) {
	return linearize(c, pred.Spec{Family: pred.Count, Var: name})
}

// InFlightTrace replays channel occupancy: each event's Val is its
// sends − receives, derived from the computation's messages — the delta
// stream an instrumented transport would report for inflight sessions.
func InFlightTrace(c *computation.Computation) []Event {
	events, _ := linearize(c, pred.Spec{Family: pred.InFlight})
	return events
}
