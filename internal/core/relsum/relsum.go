// Package relsum implements detection of relational sum predicates
// "x1 + ... + xn relop k", where each xi is an integer variable on process
// i, following Section 4 of Mittal & Garg (ICDCS 2001).
//
// The headline result: when every event changes its process's variable by
// at most one (unit-step computations), Possibly(S = k) is decidable in
// polynomial time — by Theorem 7(1) it holds iff Possibly(S <= k) and
// Possibly(S >= k) both hold, i.e. iff k lies between the minimum and the
// maximum of S over all consistent cuts. Those extrema are computed exactly
// by a max-weight closure (min-cut) construction over the event DAG, since
// consistent cuts are precisely the order ideals (Chase & Garg's technique
// for relational predicates). With arbitrary per-event changes the problem
// is NP-complete (Theorem 3; see core/reduction).
//
// Definitely(S = k) is decided through the Theorem 7(2) decomposition
// Definitely(S <= k) and Definitely(S >= k); the paper defers those two
// primitives to earlier work, and this package decides them by reachability
// inside the cut lattice restricted to the complementary region (worst-case
// exponential, unlike the Possibly side).
package relsum

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// ErrNotUnitStep indicates a variable that changes by more than one at
// some event, outside the scope of the polynomial equality detectors.
var ErrNotUnitStep = errors.New("relsum: variable changes by more than one at an event")

// ErrStepTooLarge indicates an event changing the quantity by more than
// maxflow.MaxWeight: past it the closure kernels' unbounded arcs can be
// cut and an int64 difference can wrap, so every route refuses the step
// instead of answering from it.
var ErrStepTooLarge = errors.New("relsum: per-event change exceeds the supported bound")

// Step returns the change after - before, or ErrStepTooLarge with the
// change saturated just past the bound (wrapping differences included).
func Step(after, before int64) (int64, error) {
	d := after - before
	switch {
	case after >= before && (d < 0 || d > maxflow.MaxWeight):
		return maxflow.MaxWeight + 1, ErrStepTooLarge
	case after < before && (d >= 0 || d < -maxflow.MaxWeight):
		return -maxflow.MaxWeight - 1, ErrStepTooLarge
	}
	return d, nil
}

// Relop is a relational operator.
type Relop int

const (
	// Lt is <.
	Lt Relop = iota + 1
	// Le is <=.
	Le
	// Eq is =.
	Eq
	// Ge is >=.
	Ge
	// Gt is >.
	Gt
	// Ne is !=.
	Ne
)

// String renders the operator.
func (r Relop) String() string {
	switch r {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "=="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("relop(%d)", int(r))
	}
}

// ParseRelop parses "<", "<=", "==", "=", ">=", ">", "!=".
func ParseRelop(s string) (Relop, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case "=", "==":
		return Eq, nil
	case ">=":
		return Ge, nil
	case ">":
		return Gt, nil
	case "!=":
		return Ne, nil
	default:
		return 0, fmt.Errorf("relsum: unknown relational operator %q", s)
	}
}

// Eval applies the operator.
func (r Relop) Eval(s, k int64) bool {
	switch r {
	case Lt:
		return s < k
	case Le:
		return s <= k
	case Eq:
		return s == k
	case Ge:
		return s >= k
	case Gt:
		return s > k
	case Ne:
		return s != k
	default:
		return false
	}
}

// sumOf is the ideal-sum quantity of a named per-process variable: base
// is its sum over the initial events, an event's weight its change of
// the variable (value after the event minus value after its local
// predecessor), and the value at a cut is read off the cut's frontier.
func sumOf(c *computation.Computation, name string) quantity {
	q := quantity{
		w: func(e computation.Event) int64 {
			prev := c.Prev(e.ID)
			if prev == computation.NoEvent {
				return 0 // initial events carry the baseline, not a change
			}
			d, _ := Step(c.Var(name, e.ID), c.Var(name, prev)) // saturated when out of bounds: validate reports it
			return d
		},
		at:   func(cc *computation.Computation, k computation.Cut) int64 { return cc.SumVar(name, k) },
		what: strconv.Quote(name),
	}
	for p := 0; p < c.NumProcs(); p++ {
		q.base += c.Var(name, c.Initial(computation.ProcID(p)).ID)
	}
	return q
}

// ValidateUnitStep returns ErrNotUnitStep (wrapped, identifying the event)
// unless every event changes the variable by at most one.
func ValidateUnitStep(c *computation.Computation, name string) error {
	return sumOf(c, name).validate(c, true)
}

// SumRange returns the minimum and maximum of S = sum of the named
// variable over all consistent cuts, in polynomial time via two max-weight
// closure computations on the event DAG. It does not require unit steps.
func SumRange(c *computation.Computation, name string) (min, max int64) {
	return SumRangePar(c, name, 1, nil)
}

// SumRangePar is SumRange with the two closure computations run on a
// bounded worker pool and their work counters (augmenting paths, closure
// sizes) accumulated into the trace. Identical extrema and counters for
// every worker count.
func SumRangePar(c *computation.Computation, name string, workers int, tr *obs.Trace) (min, max int64) {
	min, max, _, _ = sumOf(c, name).rangeWitness(c, workers, tr)
	return min, max
}

// PossiblyPar decides Possibly(S relop k) for the named variable sum from
// the exact extrema of S over consistent cuts, which it also returns. For
// = the computation must be unit-step (ErrNotUnitStep otherwise) and,
// when the predicate holds, witness is a consistent cut with S exactly k
// (Theorem 4). The closures run on a bounded worker pool, counters into
// the trace.
func PossiblyPar(c *computation.Computation, name string, r Relop, k int64, workers int, tr *obs.Trace) (holds bool, witness computation.Cut, min, max int64, err error) {
	return sumOf(c, name).possibly(c, r, k, workers, tr)
}

// DefinitelyPar decides Definitely(S relop k): does every run of the
// computation pass through a consistent cut with S relop k? The
// region-reachability sweeps run on a bounded worker pool, their work
// counters into the trace; = requires unit steps.
func DefinitelyPar(c *computation.Computation, name string, r Relop, k int64, workers int, tr *obs.Trace) (bool, error) {
	return sumOf(c, name).definitely(c, r, k, workers, tr)
}
