package simulator

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
)

func TestElectionExactlyOneLeader(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		perm := rng.Perm(n)
		sim := New(seed, NewElectionProcs(n, perm))
		c, err := sim.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Exactly one leader at the final cut, and it is the max id.
		leaders := 0
		leaderProc := -1
		for p := 0; p < n; p++ {
			if c.Var(VarLeader, c.Final(computation.ProcID(p)).ID) != 0 {
				leaders++
				leaderProc = p
			}
		}
		if leaders != 1 {
			t.Fatalf("seed %d: %d leaders at the end, want 1", seed, leaders)
		}
		if perm[leaderProc] != n-1 {
			t.Fatalf("seed %d: elected id %d, want max %d", seed, perm[leaderProc], n-1)
		}
		// Safety over ALL consistent cuts: never two leaders.
		two, _, _, _, err := relsum.PossiblyPar(c, VarLeader, relsum.Ge, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if two {
			t.Fatalf("seed %d: Possibly(two leaders) must be false", seed)
		}
		// Progress: every run of the recorded computation elects.
		def, err := relsum.DefinitelyPar(c, VarLeader, relsum.Eq, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !def {
			t.Fatalf("seed %d: Definitely(one leader) must hold", seed)
		}
	}
}

func TestElectionCandidatesShrink(t *testing.T) {
	sim := New(5, NewElectionProcs(5, nil))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// At the end only the winner may still be a candidate.
	n := 0
	for p := 0; p < 5; p++ {
		if c.Var(VarCandidate, c.Final(computation.ProcID(p)).ID) != 0 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("candidates at end = %d, want 1", n)
	}
	// Candidate count is monotone non-increasing along every run:
	// Definitely(candidates <= k) holds for k from n-1 downward... at
	// least verify the final-count reachability facts.
	min, _ := relsum.SumRange(c, VarCandidate)
	if min != 1 {
		t.Fatalf("min candidates over cuts = %d, want 1", min)
	}
}
