package relsum

// This file validates the paper's Section 4 statements verbatim, as
// properties over randomized unit-step computations, independently of the
// detector implementations (which the main test file already cross-checks
// against oracles).

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

// possiblyOracle checks Possibly(S relop k) exhaustively.
func possiblyOracle(c *computation.Computation, r Relop, k int64) bool {
	ok, _ := lattice.Possibly(c, sumOf(c, varName).region(r, k))
	return ok
}

// definitelyOracle checks Definitely(S relop k) exhaustively.
func definitelyOracle(c *computation.Computation, r Relop, k int64) bool {
	return lattice.Definitely(c, sumOf(c, varName).region(r, k))
}

// TestLemma5 validates: Possibly(S <= k) and Possibly(S >= k) implies
// Possibly(S = k) on unit-step computations (and, with Theorem 7(1), the
// converse).
func TestLemma5(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for trial := 0; trial < 120; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(2), 4, 6)
		for k := int64(-4); k <= 4; k++ {
			le := possiblyOracle(c, Le, k)
			ge := possiblyOracle(c, Ge, k)
			eq := possiblyOracle(c, Eq, k)
			if le && ge && !eq {
				t.Fatalf("trial %d k=%d: Lemma 5 violated (le && ge but !eq)", trial, k)
			}
			// Theorem 7(1): the converse direction.
			if eq && (!le || !ge) {
				t.Fatalf("trial %d k=%d: eq implies le && ge", trial, k)
			}
		}
	}
}

// TestLemma6 validates: Definitely(S <= k) and Definitely(S >= k) implies
// Definitely(S = k) on unit-step computations (Theorem 7(2) adds the
// converse).
func TestLemma6(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	for trial := 0; trial < 80; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(2), 4, 5)
		for k := int64(-3); k <= 3; k++ {
			le := definitelyOracle(c, Le, k)
			ge := definitelyOracle(c, Ge, k)
			eq := definitelyOracle(c, Eq, k)
			if le && ge && !eq {
				t.Fatalf("trial %d k=%d: Lemma 6 violated", trial, k)
			}
			if eq && (!le || !ge) {
				t.Fatalf("trial %d k=%d: Theorem 7(2) converse violated", trial, k)
			}
		}
	}
}

// TestLemma5FailsWithoutUnitSteps exhibits the counterexample structure:
// with jumps, Possibly(S<=k) and Possibly(S>=k) can both hold while
// Possibly(S=k) fails — the gap Theorem 3's NP-completeness lives in.
func TestLemma5FailsWithoutUnitSteps(t *testing.T) {
	// One process jumping 0 -> 2: k = 1 is skipped.
	c := computation.New()
	p := c.AddProcess()
	e := c.AddInternal(p)
	c.SetVar(varName, e, 2)
	c.MustSeal()
	if !possiblyOracle(c, Le, 1) || !possiblyOracle(c, Ge, 1) {
		t.Fatal("setup broken: both sides should hold")
	}
	if possiblyOracle(c, Eq, 1) {
		t.Fatal("S never equals 1 in this computation")
	}
}

// TestTheorem7AgainstDetectors re-states Theorem 7 using the library's
// polynomial detectors rather than the oracle, over both modalities.
func TestTheorem7AgainstDetectors(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	for trial := 0; trial < 100; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(2), 4, 6)
		k := int64(rng.Intn(7) - 3)
		eq, err := possibly(c, varName, Eq, k)
		if err != nil {
			t.Fatal(err)
		}
		le, _ := possibly(c, varName, Le, k)
		ge, _ := possibly(c, varName, Ge, k)
		if eq != (le && ge) {
			t.Fatalf("trial %d: Theorem 7(1) broken by detectors: eq=%v le=%v ge=%v", trial, eq, le, ge)
		}
		deq, err := DefinitelyPar(c, varName, Eq, k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		dle, _ := DefinitelyPar(c, varName, Le, k, 1, nil)
		dge, _ := DefinitelyPar(c, varName, Ge, k, 1, nil)
		if deq != (dle && dge) {
			t.Fatalf("trial %d: Theorem 7(2) broken by detectors: eq=%v le=%v ge=%v", trial, deq, dle, dge)
		}
	}
}

// TestSumRangeIsTight: both extremes returned by SumRange are attained by
// actual consistent cuts (the closure masks are witnesses).
func TestSumRangeIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(269))
	for trial := 0; trial < 80; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(3), 5, 8)
		min, max, argmin, argmax := sumOf(c, varName).rangeWitness(c, 1, nil)
		if !c.CutConsistent(argmin) || !c.CutConsistent(argmax) {
			t.Fatalf("trial %d: extreme cuts not consistent", trial)
		}
		if got := c.SumVar(varName, argmin); got != min {
			t.Fatalf("trial %d: argmin sum %d != min %d", trial, got, min)
		}
		if got := c.SumVar(varName, argmax); got != max {
			t.Fatalf("trial %d: argmax sum %d != max %d", trial, got, max)
		}
	}
}

// TestDefinitelyMonotoneInK: Definitely(S <= k) is monotone in k, and
// Definitely(S >= k) is antitone — a structural sanity property.
func TestDefinitelyMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 40; trial++ {
		c := unitStepComputation(rng, 2, 5, 5)
		prevLe, prevGe := false, true
		for k := int64(-5); k <= 5; k++ {
			le, _ := DefinitelyPar(c, varName, Le, k, 1, nil)
			ge, _ := DefinitelyPar(c, varName, Ge, k, 1, nil)
			if prevLe && !le {
				t.Fatalf("trial %d: Definitely(S<=k) lost at k=%d", trial, k)
			}
			if !prevGe && ge {
				t.Fatalf("trial %d: Definitely(S>=k) gained at k=%d", trial, k)
			}
			prevLe, prevGe = le, ge
		}
	}
}
