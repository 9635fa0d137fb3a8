package gpd_test

// Scale tests: the polynomial detectors must remain correct and fast on
// traces far beyond oracle reach. These use invariant checks (conservation
// laws, protocol guarantees) instead of exhaustive oracles.

import (
	"fmt"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/gen"
)

func TestStressTokenRingLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		procs  = 64
		tokens = 8
	)
	sim := gpd.NewSimulator(99, gpd.NewTokenRingProcs(procs, tokens, 2, 10))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() < 1000 {
		t.Fatalf("expected a big trace, got %d events", c.NumEvents())
	}
	held := detect(t, c, "sum(tokens) >= 0")
	if held.Max != tokens {
		t.Errorf("max held tokens = %d, want %d", held.Max, tokens)
	}
	if held.Min < 0 || held.Min > tokens {
		t.Errorf("min held tokens = %d out of range", held.Min)
	}
	flight := detect(t, c, "inflight >= 0")
	if flight.Min != 0 {
		t.Errorf("in-flight min = %d", flight.Min)
	}
	if flight.Max > tokens {
		t.Errorf("in-flight max = %d exceeds token count %d", flight.Max, tokens)
	}
}

func TestStressRandomDetectors(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := gen.Random(gen.Params{Seed: 7, Procs: 128, Events: 400, MsgFrac: 0.3})
	gen.UnitStepVar(8, c, "x")
	gen.BoolVar(9, c, "b", 0.2)
	if c.NumEvents() < 50000 {
		t.Fatalf("trace too small: %d events", c.NumEvents())
	}
	rng := detect(t, c, "sum(x) >= 0")
	if rng.Min > rng.Max {
		t.Fatalf("range inverted [%d,%d]", rng.Min, rng.Max)
	}
	// Every k in [min,max] is witnessed (Theorem 4 at scale), sampled at
	// the edges and middle.
	for _, k := range []int64{rng.Min, (rng.Min + rng.Max) / 2, rng.Max} {
		rep := detect(t, c, fmt.Sprintf("sum(x) == %d", k))
		if !rep.Holds {
			t.Fatalf("k=%d in range not witnessed", k)
		}
		if got := c.SumVar("x", rep.Witness); got != k {
			t.Fatalf("witness sum = %d, want %d", got, k)
		}
	}
	// Symmetric and conjunctive predicates at scale, on all 128
	// processes: the verdicts are workload-dependent; the point is
	// completion in polynomial time.
	detect(t, c, "levels(b): 64")
	detect(t, c, "all(b)")
}

func TestStressSingularOrderedLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const groupSize = 2
	c := gen.GroupFunnel(gen.Params{Seed: 11, Procs: 32, Events: 200, MsgFrac: 0.3}, groupSize, true)
	gen.BoolVar(12, c, "b", 0.1)
	spec := gpd.Spec{Family: gpd.FamilyCNF, Var: "b"}
	for g := 0; g < 16; g++ {
		spec.Clauses = append(spec.Clauses, gpd.SpecClause{{Proc: 2 * g}, {Proc: 2*g + 1}})
	}
	rep, err := gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReceiveOrdered))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds && !c.CutConsistent(rep.Witness) {
		t.Fatal("witness cut inconsistent")
	}
}
