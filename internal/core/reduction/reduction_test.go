package reduction

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/sat"
	"github.com/distributed-predicates/gpd/internal/subsetsum"
)

func randomFormula(rng *rand.Rand, nv, nc int) *cnf.Formula {
	f := &cnf.Formula{NumVars: nv}
	for i := 0; i < nc; i++ {
		n := 1 + rng.Intn(3)
		cl := make(cnf.Clause, 0, n)
		for j := 0; j < n; j++ {
			l := cnf.Lit(1 + rng.Intn(nv))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// TestTheorem1Reduction validates the Section 3.1 reduction end to end:
// satisfiability of random 3-CNF formulas (after the non-monotone rewrite)
// agrees with singular 2-CNF detection on the constructed computation, and
// detection witnesses convert to satisfying assignments.
func TestTheorem1Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 250; trial++ {
		orig := randomFormula(rng, 2+rng.Intn(5), 1+rng.Intn(6))
		f, err := cnf.ToNonMonotone(orig)
		if err != nil {
			t.Fatalf("trial %d: ToNonMonotone: %v", trial, err)
		}
		in, err := SingularFromCNF(f)
		if err != nil {
			t.Fatalf("trial %d: SingularFromCNF: %v", trial, err)
		}
		want := sat.Satisfiable(f)
		res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover)
		if err != nil {
			t.Fatalf("trial %d: Detect: %v", trial, err)
		}
		if res.Found != want {
			t.Fatalf("trial %d: detection = %v, SAT = %v\nformula: %v", trial, res.Found, want, f)
		}
		if res.Found {
			a, err := in.Assignment(res.Witness)
			if err != nil {
				t.Fatalf("trial %d: Assignment: %v", trial, err)
			}
			if !f.Eval(a) {
				t.Fatalf("trial %d: extracted assignment does not satisfy the formula\nformula: %v\nassignment: %v", trial, f, a)
			}
			// The restriction must satisfy the original 3-CNF too.
			if !orig.Eval(cnf.RestrictAssignment(a, orig.NumVars)) {
				t.Fatalf("trial %d: restricted assignment does not satisfy the original", trial)
			}
		}
	}
}

// TestTheorem1ConsistencyIffNonConflicting checks the structural claim of
// the construction: two true events are inconsistent iff their literals
// are conflicting, except for events on a shared process.
func TestTheorem1ConsistencyIffNonConflicting(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 100; trial++ {
		orig := randomFormula(rng, 2+rng.Intn(4), 1+rng.Intn(5))
		f, err := cnf.ToNonMonotone(orig)
		if err != nil {
			t.Fatal(err)
		}
		in, err := SingularFromCNF(f)
		if err != nil {
			t.Fatal(err)
		}
		var trues []computation.EventID
		in.C.Events(func(e computation.Event) bool {
			if in.Truth()(e) {
				trues = append(trues, e.ID)
			}
			return true
		})
		for _, a := range trues {
			for _, b := range trues {
				if a == b {
					continue
				}
				la, lb := in.lit[a], in.lit[b]
				sameProc := in.C.Event(a).Proc == in.C.Event(b).Proc
				conflicting := la.Var() == lb.Var() && la.Pos() != lb.Pos()
				consistent := in.C.ConsistentEvents(a, b)
				if sameProc {
					if consistent {
						t.Fatalf("trial %d: same-process true events %v,%v consistent", trial, a, b)
					}
					continue
				}
				if consistent == conflicting {
					t.Fatalf("trial %d: events %v(%v), %v(%v): consistent=%v conflicting=%v",
						trial, a, la, b, lb, consistent, conflicting)
				}
			}
		}
	}
}

func TestSingularFromCNFRejectsMonotone(t *testing.T) {
	f := &cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1, 2, 3}}}
	if _, err := SingularFromCNF(f); !errors.Is(err, ErrNotNonMonotone) {
		t.Errorf("err = %v, want ErrNotNonMonotone", err)
	}
	long := &cnf.Formula{NumVars: 4, Clauses: []cnf.Clause{{1, -2, 3, 4}}}
	if _, err := SingularFromCNF(long); !errors.Is(err, ErrNotNonMonotone) {
		t.Errorf("err = %v, want ErrNotNonMonotone", err)
	}
}

func TestSingularFromCNFKnownInstances(t *testing.T) {
	// (v) & (!v) is unsatisfiable.
	unsat := &cnf.Formula{NumVars: 1, Clauses: []cnf.Clause{{1}, {-1}}}
	in, err := SingularFromCNF(unsat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := singular.Detect(in.C, in.Pred, in.Truth(), singular.ChainCover)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("(v) & (!v) must not be detectable")
	}
	// (v | w) & (!v | w) is satisfiable (w = true).
	sat2 := &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{1, 2}, {-1, 2}}}
	in2, err := SingularFromCNF(sat2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := singular.Detect(in2.C, in2.Pred, in2.Truth(), singular.ChainCover)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found {
		t.Fatal("(v | w) & (!v | w) must be detectable")
	}
	a, err := in2.Assignment(res2.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if !sat2.Eval(a) {
		t.Fatalf("assignment %v does not satisfy", a)
	}
}

// TestTheorem3Reduction validates the subset-sum reduction: the target is
// reachable as a cut sum iff the subset exists, and the witness cut
// recovers a valid subset.
func TestTheorem3Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(1 + rng.Intn(12))
		}
		target := int64(rng.Intn(40))
		inst := subsetsum.Instance{Sizes: sizes, Target: target}
		want, _ := subsetsum.Solve(inst)

		c := RelsumFromSubsetSum(inst)
		got, cut := lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
			return cc.SumVar(SumVar, k) == target
		})
		if got != want {
			t.Fatalf("trial %d: detection = %v, subset-sum = %v (sizes=%v target=%d)",
				trial, got, want, sizes, target)
		}
		if got {
			// Element i is chosen iff process i's event is inside the cut.
			var subset []int
			for p, idx := range cut {
				if idx >= 1 {
					subset = append(subset, p)
				}
			}
			if s := subsetsum.Sum(sizes, subset); s != target {
				t.Fatalf("trial %d: recovered subset %v sums to %d, want %d", trial, subset, s, target)
			}
		}
	}
}

func TestAssignmentRejectsBadWitness(t *testing.T) {
	f := &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{1, 2}}}
	in, err := SingularFromCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	// An initial event is not a literal's true event.
	if _, err := in.Assignment([]computation.EventID{in.C.Initial(0).ID}); err == nil {
		t.Error("expected error for non-true-event witness")
	}
}
