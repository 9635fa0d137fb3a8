// Voting: symmetric predicates over a gossip-based vote (Section 4.3 of
// the paper) — absence of a simple majority, exclusive-or, not-all-equal.
//
// Each process holds a yes/no opinion and may change its mind as gossip
// arrives. The detectors answer global questions about states the system
// might have passed through: was there ever a moment with no majority?
// Could the votes have been split exactly down the middle?
//
//	go run ./examples/voting
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
	const procs = 8
	sim := gpd.NewSimulator(7, gpd.NewVoterProcs(procs, 5, func(i int) bool { return i%3 == 0 }))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	yes := func(e gpd.Event) bool { return c.Var(gpd.VarYes, e.ID) != 0 }
	fmt.Printf("%d voters, %d events, %d gossip messages\n",
		procs, c.NumEvents(), len(c.Messages()))

	questions := []struct {
		name string
		spec gpd.SymmetricSpec
	}{
		{"no simple majority (tie)", gpd.NoSimpleMajority(procs)},
		{"no two-thirds majority", gpd.NoTwoThirdsMajority(procs)},
		{"exclusive-or (odd yes count)", gpd.Xor(procs)},
		{"not all votes equal", gpd.NotAllEqual(procs)},
		{"unanimous yes", gpd.ExactlyK(procs, procs)},
	}
	var rep gpd.Report
	for _, q := range questions {
		// A symmetric predicate is its set of satisfying yes-counts.
		rep, err = gpd.Detect(c, gpd.Spec{Family: gpd.FamilyLevels, Var: gpd.VarYes, Levels: q.spec.Levels})
		if err != nil {
			return err
		}
		fmt.Printf("%-30s possibly=%v", q.name, rep.Holds)
		if rep.Holds {
			fmt.Printf("  (witness cut %v, yes count %d)", rep.Witness, c.CountTrue(rep.Witness, yes))
		}
		fmt.Println()
	}

	// The yes count is a unit-step sum, so its whole reachable range is
	// exact and cheap — every report above carries it:
	fmt.Printf("yes-count range over all consistent cuts: [%d, %d] of %d\n", rep.Min, rep.Max, procs)
	return nil
}
