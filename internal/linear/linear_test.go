package linear

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

func localsFromTables(truth [][]bool) map[computation.ProcID]func(computation.Event) bool {
	locals := make(map[computation.ProcID]func(computation.Event) bool)
	for p, row := range truth {
		row := row
		locals[computation.ProcID(p)] = func(e computation.Event) bool {
			return e.Index < len(row) && row[e.Index]
		}
	}
	return locals
}

// TestConjunctiveAgreesWithCPDHB cross-checks the linear-predicate
// detector against the dedicated conjunctive detector.
func TestConjunctiveAgreesWithCPDHB(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		c := gen.Random(gen.Params{Seed: seed, Procs: 3, Events: 5, MsgFrac: 0.6})
		truth := gen.BoolTables(seed+1000, c, 0.4)
		locals := make(map[computation.ProcID]conjunctive.LocalPredicate)
		for p, local := range localsFromTables(truth) {
			locals[p] = local
		}
		want := conjunctive.DetectTraced(c, locals, nil)
		cut, got := FindLeast(c, Conjunctive(localsFromTables(truth)), c.InitialCut())
		if got != want.Found {
			t.Fatalf("seed %d: linear = %v, CPDHB = %v", seed, got, want.Found)
		}
		if got {
			if !c.CutConsistent(cut) {
				t.Fatalf("seed %d: witness %v inconsistent", seed, cut)
			}
			for p, row := range truth {
				if !row[cut[p]] {
					t.Fatalf("seed %d: witness %v violates local predicate of %d", seed, cut, p)
				}
			}
		}
	}
}

// TestFindLeastReturnsTheLeastCut verifies the canonical-witness property:
// the returned cut is the meet of all satisfying cuts.
func TestFindLeastReturnsTheLeastCut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.5})
		truth := gen.BoolTables(rng.Int63(), c, 0.5)
		o := Conjunctive(localsFromTables(truth))
		got, ok := FindLeast(c, o, c.InitialCut())
		// Compute the meet of all satisfying cuts exhaustively.
		var meet computation.Cut
		lattice.Explore(c, func(k computation.Cut) bool {
			if !o.Holds(c, k) {
				return true
			}
			if meet == nil {
				meet = k.Clone()
				return true
			}
			for i := range meet {
				if k[i] < meet[i] {
					meet[i] = k[i]
				}
			}
			return true
		})
		if !ok {
			if meet != nil {
				t.Fatalf("trial %d: FindLeast missed satisfying cuts (meet %v)", trial, meet)
			}
			continue
		}
		if meet == nil {
			t.Fatalf("trial %d: FindLeast returned %v but no cut satisfies", trial, got)
		}
		if !got.Equal(meet) {
			t.Fatalf("trial %d: FindLeast = %v, meet of satisfying cuts = %v", trial, got, meet)
		}
	}
}

func TestImpossiblePredicate(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 1, Procs: 2, Events: 3, MsgFrac: 0})
	o := Conjunctive(map[computation.ProcID]func(computation.Event) bool{
		0: func(computation.Event) bool { return false },
	})
	if _, ok := FindLeast(c, o, c.InitialCut()); ok {
		t.Fatal("constant-false local predicate cannot be satisfied")
	}
}

func TestEmptyOracle(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 2, Procs: 2, Events: 2, MsgFrac: 0})
	cut, ok := FindLeast(c, Conjunctive(nil), c.InitialCut())
	if !ok || cut.Size() != 0 {
		t.Fatalf("empty conjunction must hold at the initial cut, got %v %v", ok, cut)
	}
}
