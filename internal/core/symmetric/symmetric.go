// Package symmetric detects symmetric global predicates on boolean
// variables, one per process, following Section 4.3 of Mittal & Garg.
//
// A predicate of n boolean variables is symmetric iff it is invariant
// under every permutation of its variables; equivalently (Kohavi), it is
// specified by a set of levels M, holding exactly when the number of true
// variables lies in M. Since Possibly distributes over disjunction and a
// boolean variable changes by at most one per event, Possibly(phi) for a
// symmetric phi reduces to |M| instances of the polynomial-time
// Possibly(sum = m) detector of core/relsum — this is the corollary the
// paper highlights: exclusive-or of local predicates, absence of a simple
// or two-thirds majority, exactly-k tokens and "not all equal" all become
// efficiently detectable.
package symmetric

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Truth supplies the boolean variable of the event's process at the state
// following the event.
type Truth func(computation.Event) bool

// Spec is a symmetric predicate over n boolean variables: it holds at a
// cut iff the number of processes whose variable is true lies in Levels.
type Spec struct {
	// N is the number of variables (one per process of the computation).
	N int
	// Levels is the sorted set of true-counts at which the predicate
	// holds; entries outside [0, N] are ignored.
	Levels []int
}

// String renders the spec.
func (s Spec) String() string {
	return fmt.Sprintf("count in %v of %d", s.Levels, s.N)
}

// FromFunc builds a Spec from an arbitrary symmetric predicate given as a
// function of the true-count.
func FromFunc(n int, holds func(count int) bool) Spec {
	s := Spec{N: n}
	for m := 0; m <= n; m++ {
		if holds(m) {
			s.Levels = append(s.Levels, m)
		}
	}
	return s
}

// Parity holds when the number of true variables is odd (the exclusive-or
// of the local predicates) or even, per the odd flag.
func Parity(n int, odd bool) Spec {
	return FromFunc(n, func(m int) bool { return (m%2 == 1) == odd })
}

// Xor is the exclusive-or of the n local predicates: odd parity.
func Xor(n int) Spec { return Parity(n, true) }

// NoSimpleMajority holds when neither the true nor the false variables
// form a strict majority — possible only at count n/2 with n even.
func NoSimpleMajority(n int) Spec {
	return FromFunc(n, func(m int) bool { return 2*m <= n && 2*(n-m) <= n })
}

// NoTwoThirdsMajority holds when neither side reaches a two-thirds
// majority: 3*count < 2n and 3*(n-count) < 2n.
func NoTwoThirdsMajority(n int) Spec {
	return FromFunc(n, func(m int) bool { return 3*m < 2*n && 3*(n-m) < 2*n })
}

// ExactlyK holds when exactly k variables are true (for token predicates:
// exactly k tokens present).
func ExactlyK(n, k int) Spec { return Spec{N: n, Levels: []int{k}} }

// NotAllEqual holds unless all variables agree.
func NotAllEqual(n int) Spec {
	return FromFunc(n, func(m int) bool { return m != 0 && m != n })
}

// countVar is the derived 0/1 variable injected into a scratch copy of the
// computation; boolean variables flip by at most one per event, so the
// unit-step machinery of relsum always applies.
const countVar = "__symmetric_count"

// withCount returns a sealed copy of c carrying the 0/1 count variable.
func withCount(c *computation.Computation, truth Truth) *computation.Computation {
	cc := c.Clone()
	cc.Events(func(e computation.Event) bool {
		if truth(e) {
			cc.SetVar(countVar, e.ID, 1)
		}
		return true
	})
	cc.MustSeal()
	return cc
}

// PossiblyPar reports whether some consistent cut satisfies the symmetric
// predicate, returning a witness cut when one exists and the exact range
// of the true-count over all consistent cuts. Runs in polynomial time: one
// SumRange plus at most one witness walk, the closure computations on a
// bounded worker pool (the witness probe stays sequential), work counters
// (levels probed, closure work) into the trace. Identical verdict, witness
// and counters for every worker count.
func PossiblyPar(c *computation.Computation, spec Spec, truth Truth, workers int, tr *obs.Trace) (holds bool, cut computation.Cut, min, max int64, err error) {
	cc := withCount(c, truth)
	min, max = relsum.SumRangePar(cc, countVar, workers, tr)
	var probed int64
	defer func() { tr.Add("symmetric.levels_probed", probed) }()
	for _, m := range spec.Levels {
		if m < 0 || m > spec.N {
			continue
		}
		probed++
		if int64(m) < min || int64(m) > max {
			continue
		}
		ok, cut, _, _, err := relsum.PossiblyPar(cc, countVar, relsum.Eq, int64(m), workers, tr)
		if err != nil {
			return false, nil, min, max, err
		}
		if !ok {
			return false, nil, min, max, fmt.Errorf("symmetric: internal error: level %d in range [%d,%d] but no witness", m, min, max)
		}
		return true, cut, min, max, nil
	}
	return false, nil, min, max, nil
}

// DefinitelyPar reports whether every run passes through a cut satisfying
// the symmetric predicate. Definitely does not distribute over
// disjunction, so this falls back to region reachability in the cut
// lattice (worst-case exponential; the paper's polynomial corollary covers
// Possibly only): one lattice.PathExists query over the cuts outside the
// level set, swept on a bounded worker pool with its region counter
// accumulated into the trace.
func DefinitelyPar(c *computation.Computation, spec Spec, truth Truth, workers int, tr *obs.Trace) (bool, error) {
	// Definitely implies Possibly: the count's range settles a level
	// set no cut reaches before any region search.
	if possibly, _, _, _, err := PossiblyPar(c, spec, truth, workers, tr); err != nil || !possibly {
		return false, err
	}
	levels := make(map[int]bool, len(spec.Levels))
	for _, m := range spec.Levels {
		levels[m] = true
	}
	holds := func(cc *computation.Computation, k computation.Cut) bool {
		return levels[cc.CountTrue(k, func(e computation.Event) bool { return truth(e) })]
	}
	not := func(cc *computation.Computation, k computation.Cut) bool { return !holds(cc, k) }
	avoidable := lattice.PathExists(c, c.InitialCut(), c.FinalCut(), not, workers, tr)
	return !avoidable, nil
}
