package gpd_test

// Integration tests: end-to-end pipelines across packages — simulate,
// serialize, reload, and verify that every detector family gives identical
// answers on both copies, and that detector families agree with each other
// where their predicate classes overlap.

import (
	"bytes"
	"fmt"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// roundTrip serializes and reloads a computation.
func roundTrip(t *testing.T, c *gpd.Computation) *gpd.Computation {
	t.Helper()
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := gpd.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

func TestDetectorsInvariantUnderSerialization(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewTokenRingProcs(4, 2, 1, 3))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		c2 := roundTrip(t, c)
		for k := int64(0); k <= 3; k++ {
			pred := fmt.Sprintf("sum(tokens) == %d", k)
			p1, p2 := detect(t, c, pred), detect(t, c2, pred)
			if p1.Holds != p2.Holds || p1.Min != p2.Min || p1.Max != p2.Max || !p1.Witness.Equal(p2.Witness) {
				t.Fatalf("seed %d: Possibly(%s) changed across serialization: %+v vs %+v", seed, pred, p1, p2)
			}
			if detect(t, c, pred, definitely).Holds != detect(t, c2, pred, definitely).Holds {
				t.Fatalf("seed %d: Definitely(%s) changed across serialization", seed, pred)
			}
		}
	}
}

// TestFamilyAgreement: the same predicate expressed in different detector
// families must give the same answer.
func TestFamilyAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewFlawedMutexProcs(3, 2))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		inCS := func(e gpd.Event) bool { return c.Var(gpd.VarCS, e.ID) != 0 }

		// "All three in CS simultaneously": conjunctive vs singular
		// (unit clauses) vs symmetric (count == 3) vs the slice vs generic.
		conj := detect(t, c, "all(cs)").Holds
		sing := detect(t, c, "cnf(cs): (0) & (1) & (2)", gpd.WithStrategy(gpd.StrategyChainCover)).Holds
		symm := detect(t, c, "count(cs) == 3").Holds
		slice := detect(t, c, "all(cs)", gpd.WithStrategy(gpd.StrategySlice)).Holds
		genOK, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) == 3
		})
		if conj != sing || conj != symm || conj != slice || conj != genOK {
			t.Fatalf("seed %d: family disagreement: conj=%v singular=%v symmetric=%v slice=%v generic=%v",
				seed, conj, sing, symm, slice, genOK)
		}

		// "At least two in CS": symmetric vs generic vs sum.
		twoSym := detect(t, c, "count(cs) >= 2").Holds
		twoSum := detect(t, c, "sum(cs) >= 2").Holds
		twoGen, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) >= 2
		})
		if twoSym != twoSum || twoSym != twoGen {
			t.Fatalf("seed %d: >=2 disagreement: symmetric=%v sum=%v generic=%v",
				seed, twoSym, twoSum, twoGen)
		}

		// Definitely modality: interval algorithm vs generic sweep.
		defConj := detect(t, c, "all(cs)", definitely).Holds
		defGen := gpd.DefinitelyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
			return cc.CountTrue(k, inCS) == 3
		})
		if defConj != defGen {
			t.Fatalf("seed %d: Definitely(all(cs))=%v, generic=%v", seed, defConj, defGen)
		}
	}
}

// TestSliceConsistentWithDetection: on gossip traces the slice of the
// conjunctive predicate is non-empty exactly when the conjunctive
// detector finds a cut, and its bottom is the detector's witness.
func TestSliceConsistentWithDetection(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewGossiperProcs(3, 8, 300))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		pred := "all(" + gpd.VarFlag + ")"
		batch, slice := detect(t, c, pred), detect(t, c, pred, gpd.WithStrategy(gpd.StrategySlice))
		if batch.Holds != slice.Holds || !batch.Witness.Equal(slice.Witness) {
			t.Fatalf("seed %d: detector %v at %v, slice %v with bottom %v",
				seed, batch.Holds, batch.Witness, slice.Holds, slice.Witness)
		}
	}
}

// TestCLIQuickPipeline mimics the documented tool pipeline in-process:
// generate, detect, visualize.
func TestCLIQuickPipeline(t *testing.T) {
	sim := gpd.NewSimulator(11, gpd.NewVoterProcs(5, 3, func(i int) bool { return i < 2 }))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	c2 := roundTrip(t, c)
	for _, k := range []int64{0, 1, 2, 3, 4, 5} {
		pred := fmt.Sprintf("sum(%s) == %d", gpd.VarYes, k)
		rep := detect(t, c, pred)
		if got := detect(t, c2, pred); got.Holds != rep.Holds {
			t.Fatalf("%s: %v vs %v", pred, rep.Holds, got.Holds)
		}
		// Witness rendering path (exercised via the library, the CLI
		// tests cover the command itself).
		if rep.Holds && c.SumVar(gpd.VarYes, rep.Witness) != k {
			t.Fatalf("%s: witness %v sums to %d", pred, rep.Witness, c.SumVar(gpd.VarYes, rep.Witness))
		}
	}
}
