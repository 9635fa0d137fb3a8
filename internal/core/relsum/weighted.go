package relsum

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Weight assigns to each non-initial event the change it causes to some
// global quantity; the quantity at a consistent cut equals base plus the
// sum of weights of the cut's non-initial events. Per-process variable
// sums are the special case weight(e) = x(e) - x(prev(e)); channel
// occupancy is weight(e) = (#messages sent at e) - (#messages received at
// e). Any such "ideal sum" admits the same polynomial min/max machinery
// via max-weight closures.
type Weight func(computation.Event) int64

// weighted is the ideal-sum quantity of a caller-supplied weight.
func weighted(base int64, w Weight) quantity {
	return quantity{
		base: base,
		w:    w,
		at:   func(c *computation.Computation, k computation.Cut) int64 { return WeightedAt(c, base, w, k) },
		what: "the weighted quantity",
	}
}

// WeightedAt evaluates the quantity at a cut directly.
func WeightedAt(c *computation.Computation, base int64, w Weight, k computation.Cut) int64 {
	s := base
	for p := 0; p < c.NumProcs(); p++ {
		for i := 1; i <= k[p]; i++ {
			s += w(c.EventAt(computation.ProcID(p), i))
		}
	}
	return s
}

// WeightedRangePar returns the minimum and maximum over all consistent
// cuts of base + sum of event weights, in polynomial time (two
// max-weight closure computations on a bounded worker pool, their work
// counters accumulated into the trace).
func WeightedRangePar(c *computation.Computation, base int64, w Weight, workers int, tr *obs.Trace) (min, max int64) {
	min, max, _, _ = weighted(base, w).rangeWitness(c, workers, tr)
	return min, max
}

// PossiblyWeightedPar decides Possibly(quantity relop k) for an
// ideal-sum quantity and returns its exact range. Order operators are
// exact with arbitrary weights; equality requires unit weights
// (|w(e)| <= 1), mirroring the paper's Theorem 7/Theorem 3 split, and
// comes with a witness cut (Theorem 4's constructive side).
func PossiblyWeightedPar(c *computation.Computation, base int64, w Weight, r Relop, k int64, workers int, tr *obs.Trace) (holds bool, witness computation.Cut, min, max int64, err error) {
	return weighted(base, w).possibly(c, r, k, workers, tr)
}

// DefinitelyWeightedPar decides Definitely(quantity relop k) for an
// ideal-sum quantity by region reachability (worst-case exponential);
// equality requires unit weights and uses the Theorem 7(2)
// decomposition.
func DefinitelyWeightedPar(c *computation.Computation, base int64, w Weight, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	return weighted(base, w).definitely(c, r, k, workers, tr)
}

// InFlightWeight returns the weight function for the channel-occupancy
// quantity: the number of messages sent but not yet received. Each send
// at an event contributes +1 per message, each delivery -1. The initial
// occupancy of a computation is zero.
func InFlightWeight(c *computation.Computation) Weight {
	// Precompute per-event send/receive counts (an event may carry
	// several messages in either direction).
	delta := make([]int64, c.NumEvents())
	for _, m := range c.Messages() {
		delta[int(m.Send)]++
		delta[int(m.Receive)]--
	}
	return func(e computation.Event) int64 { return delta[int(e.ID)] }
}

// InFlightRange returns the minimum and maximum number of in-flight
// messages over all consistent cuts — e.g. max gives the channel-buffer
// bound the system actually needs, and min == 0 at reachable quiescent
// states.
func InFlightRange(c *computation.Computation) (min, max int64) {
	return InFlightRangePar(c, 1, nil)
}

// InFlightRangePar is InFlightRange on a bounded worker pool, closure
// work counters accumulated into the trace.
func InFlightRangePar(c *computation.Computation, workers int, tr *obs.Trace) (min, max int64) {
	return WeightedRangePar(c, 0, InFlightWeight(c), workers, tr)
}
