package relsum

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// quantity is an ideal-sum quantity: its value at a consistent cut is
// base plus the weights of the cut's non-initial events. Named variable
// sums (sumOf) and caller-weighted quantities such as channel occupancy
// (weighted) are the two spellings; every kernel of the package — the
// closure range, the unit-step check, the Theorem 7 decisions and the
// Theorem 4 witness walk — is written once, here, against this type.
type quantity struct {
	base int64
	w    Weight
	// at evaluates the quantity at a cut directly; the Definitely sweeps
	// call it once per visited cut, so a named sum keeps the O(procs)
	// frontier read instead of re-summing the cut's weights.
	at func(c *computation.Computation, k computation.Cut) int64
	// what names the quantity in unit-step errors.
	what string
}

// rangeWitness computes the exact range of the quantity over all
// consistent cuts, with cuts achieving the extremes: consistent cuts are
// the order ideals of the event DAG, so the extremes are two max-weight
// closures (weights zero for initial events, which every cut contains;
// each event requires its non-initial direct predecessors), solved as a
// pair on a bounded worker pool. workers <= 1 is the exact sequential
// call sequence; extrema and counters are identical for every count.
func (q quantity) rangeWitness(c *computation.Computation, workers int, tr *obs.Trace) (min, max int64, argmin, argmax computation.Cut) {
	weights := make([]int64, c.NumEvents())
	var requires [][2]int
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			return true
		}
		weights[int(e.ID)] = q.w(e)
		for _, p := range c.DirectPreds(e.ID) {
			if !c.Event(p).IsInitial() {
				requires = append(requires, [2]int{int(e.ID), int(p)})
			}
		}
		return true
	})
	best, maskMax, worst, maskMin := maxflow.MaxClosurePairTraced(weights, requires, workers, tr)
	return q.base - worst, q.base + best, maskToCut(c, maskMin), maskToCut(c, maskMax)
}

// maskToCut converts a closure membership mask over event ids into the
// frontier cut containing exactly the chosen events plus all initial
// events.
func maskToCut(c *computation.Computation, mask []bool) computation.Cut {
	k := c.InitialCut()
	c.Events(func(e computation.Event) bool {
		if !e.IsInitial() && mask[int(e.ID)] && e.Index > k[int(e.Proc)] {
			k[int(e.Proc)] = e.Index
		}
		return true
	})
	return k
}

// validate returns ErrStepTooLarge (wrapped, identifying the event) if
// an event changes the quantity by more than the kernels' bound and,
// when unit is set, ErrNotUnitStep unless every event changes it by at
// most one.
func (q quantity) validate(c *computation.Computation, unit bool) error {
	var err error
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			return true
		}
		d := q.w(e)
		if _, serr := Step(d, 0); serr != nil {
			err = fmt.Errorf("%w: event %v changes %s by %d or more", serr, e, q.what, d)
		} else if unit && (d > 1 || d < -1) {
			err = fmt.Errorf("%w: event %v changes %s by %d", ErrNotUnitStep, e, q.what, d)
		}
		return err == nil
	})
	return err
}

// possibly decides Possibly(quantity relop k) from the exact range, which
// it also returns. The order operators and != need no assumption on the
// per-event change. = requires unit steps (with arbitrary steps the
// problem is NP-complete, Theorem 3, and ErrNotUnitStep is returned); it
// then holds iff min <= k <= max by Theorem 7(1), and the witness — a
// consistent cut where the quantity is exactly k — is constructed in
// polynomial time from Theorem 4 (the intermediate-value property of
// lattice paths): walk from the initial cut to an extremal cut and on to
// the final cut; along a path the quantity changes by at most one per
// step, so every value between the path's extremes is hit. The extremal
// cuts come from the worker pool; the walks are linear in the number of
// events and stay sequential. The other operators return no witness.
func (q quantity) possibly(c *computation.Computation, r Relop, k int64, workers int, tr *obs.Trace) (holds bool, witness computation.Cut, min, max int64, err error) {
	if err := q.validate(c, false); err != nil {
		return false, nil, 0, 0, err
	}
	min, max, argmin, argmax := q.rangeWitness(c, workers, tr)
	switch r {
	case Lt:
		holds = min < k
	case Le:
		holds = min <= k
	case Ge:
		holds = max >= k
	case Gt:
		holds = max > k
	case Ne:
		holds = min != k || max != k
	case Eq:
		if err := q.validate(c, true); err != nil {
			return false, nil, min, max, err
		}
		if holds = min <= k && k <= max; !holds {
			break
		}
		// The path through argmin covers [min, final value], the one
		// through argmax [final value, max]; their union is [min, max].
		for _, via := range []computation.Cut{argmin, argmax} {
			if cut, ok := q.scan(c, k, via); ok {
				return true, cut, min, max, nil
			}
		}
		// Unreachable for unit-step computations; guarded for safety.
		return false, nil, min, max, fmt.Errorf("relsum: internal error: no witness for %s = %d in [%d,%d]", q.what, k, min, max)
	default:
		err = fmt.Errorf("relsum: unknown relational operator %v", r)
	}
	return holds, nil, min, max, err
}

// scan walks the lattice path initial -> via -> final and returns the
// first cut where the quantity is k, if any.
func (q quantity) scan(c *computation.Computation, k int64, via computation.Cut) (computation.Cut, bool) {
	cur, val := c.InitialCut(), q.base
	if val == k {
		return cur, true
	}
	for _, target := range []computation.Cut{via, c.FinalCut()} {
		for !cur.Equal(target) {
			advanced := false
			for _, id := range c.Enabled(cur) {
				e := c.Event(id)
				if e.Index <= target[int(e.Proc)] {
					cur = c.Execute(cur, e.Proc)
					val += q.w(e)
					advanced = true
					break
				}
			}
			if !advanced {
				// target not reachable monotonically (cannot happen
				// for targets that are consistent cuts above cur).
				return nil, false
			}
			if val == k {
				return cur, true
			}
		}
	}
	return nil, false
}

// region returns the lattice predicate "quantity relop k".
func (q quantity) region(r Relop, k int64) lattice.Predicate {
	return func(c *computation.Computation, cut computation.Cut) bool {
		return r.Eval(q.at(c, cut), k)
	}
}

// definitely decides Definitely(quantity relop k): does every run pass
// through a consistent cut satisfying it? A run avoids the predicate iff
// the cut lattice has a bottom-to-top path inside the complementary
// region, so each operator is one region-reachability query; = on
// unit-step computations is the two queries of Theorem 7(2) — a run hits
// k exactly when it dips to <= k and rises to >= k (intermediate value
// along the run). Each query is lattice.PathExists, the package's one
// level-synchronous search, on the worker pool. It explores at most the
// consistent cuts of the region: far fewer than run enumeration, but
// exponential in the worst case — the paper defers polynomial algorithms
// for the <=/>= primitives to prior work and this package keeps their
// role explicit.
func (q quantity) definitely(c *computation.Computation, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	avoidable := func(r Relop) bool {
		pred := q.region(r, k)
		not := func(cc *computation.Computation, cut computation.Cut) bool { return !pred(cc, cut) }
		return lattice.PathExists(c, c.InitialCut(), c.FinalCut(), not, workers, tr)
	}
	if err := q.validate(c, r == Eq); err != nil {
		return false, err
	}
	// Definitely implies Possibly: the two closures settle a predicate
	// no cut satisfies before any region search.
	if possibly, _, _, _, err := q.possibly(c, r, k, workers, tr); err != nil || !possibly {
		return false, err
	}
	switch r {
	case Lt, Le, Ge, Gt, Ne:
		return !avoidable(r), nil
	case Eq:
		return !avoidable(Le) && !avoidable(Ge), nil
	default:
		return false, fmt.Errorf("relsum: unknown relational operator %v", r)
	}
}
