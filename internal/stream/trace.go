package stream

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
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

// SumTrace replays the named variable: events carry its value, and the
// returned init slice holds the per-process initial values for the Spec.
func SumTrace(c *computation.Computation, name string) (events []Event, init []int64) {
	init = make([]int64, c.NumProcs())
	for p := range init {
		init[p] = c.Var(name, c.Initial(computation.ProcID(p)).ID)
	}
	events = Trace(c, func(e computation.Event, ev *Event) {
		ev.Val = c.Var(name, e.ID)
	})
	return events, init
}

// BoolTrace replays the named 0/1 variable as Truth flags, with 0/1
// initial values for the Spec.
func BoolTrace(c *computation.Computation, name string) (events []Event, init []int64) {
	init = make([]int64, c.NumProcs())
	for p := range init {
		if c.Var(name, c.Initial(computation.ProcID(p)).ID) != 0 {
			init[p] = 1
		}
	}
	events = Trace(c, func(e computation.Event, ev *Event) {
		ev.Truth = c.Var(name, e.ID) != 0
	})
	return events, init
}

// InFlightTrace replays channel occupancy: each event's Val is its
// sends − receives, derived from the computation's messages — the delta
// stream an instrumented transport would report for inflight sessions.
func InFlightTrace(c *computation.Computation) []Event {
	w := relsum.InFlightWeight(c)
	return Trace(c, func(e computation.Event, ev *Event) {
		ev.Val = w(e)
	})
}
