// Twophase: verify two-phase commit with the full detector toolbox —
// the paper's own motivating example ("commit point of a transaction" as
// a Definitely query), plus an injected coordinator bug that only
// predicate detection over the partial order reliably exposes, and
// channel-occupancy bounds from the in-flight detector.
//
//	go run ./examples/twophase
package main

import (
	"fmt"
	"log"

	gpd "github.com/distributed-predicates/gpd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 5 // coordinator + 4 participants

	fmt.Println("--- correct coordinator, unanimous yes ---")
	sim := gpd.NewSimulator(1, gpd.NewTwoPhaseProcs(n, false, func(int) bool { return true }))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	// The commit point: every run passes through "all n committed".
	committed, err := gpd.Detect(c, gpd.Spec{Family: gpd.FamilySum, Var: gpd.VarCommitted, Rel: gpd.Eq, K: n},
		gpd.WithModality(gpd.ModalityDefinitely))
	if err != nil {
		return err
	}
	fmt.Printf("Definitely(all %d committed) = %v\n", n, committed.Holds)
	if bad, err := mixedDecision(c); err != nil {
		return err
	} else {
		fmt.Printf("Possibly(commit & abort coexist) = %v (agreement holds)\n", bad)
	}
	occupancy, err := gpd.Detect(c, gpd.Spec{Family: gpd.FamilyInFlight, Rel: gpd.Ge, K: 0})
	if err != nil {
		return err
	}
	fmt.Printf("channel occupancy over all cuts: [%d, %d] messages\n", occupancy.Min, occupancy.Max)

	fmt.Println("\n--- buggy coordinator (commits on the first yes), one no vote ---")
	for seed := int64(0); seed < 6; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewTwoPhaseProcs(n, true, func(i int) bool { return i != n-1 }))
		c, err := sim.Run()
		if err != nil {
			return err
		}
		bad, err := mixedDecision(c)
		if err != nil {
			return err
		}
		fmt.Printf("seed %d: Possibly(commit & abort coexist) = %v\n", seed, bad)
	}
	fmt.Println("The premature commit races the unilateral abort: detection over the")
	fmt.Println("partial order flags the violation whether or not the recorded schedule showed it.")
	return nil
}

// mixedDecision asks whether any consistent cut shows both decisions at
// once. Committed and aborted are monotone flags, so the conjunction
// "sum(committed) >= 1 and sum(aborted) >= 1" is the natural query; we use
// the generic detector for the conjunction of two sums (small instances).
func mixedDecision(c *gpd.Computation) (bool, error) {
	ok, _ := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
		return cc.SumVar(gpd.VarCommitted, k) >= 1 && cc.SumVar(gpd.VarAborted, k) >= 1
	})
	return ok, nil
}
