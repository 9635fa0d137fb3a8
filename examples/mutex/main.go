// Mutex: debug a flawed distributed mutual exclusion protocol.
//
// The simulated protocol asks only one neighbour for permission before
// entering the critical section — a classic race. Some recorded schedules
// happen to look safe; predicate detection over the partial order finds
// the violation anyway, because it checks every consistent cut, not just
// the interleaving that happened to be observed.
//
//	go run ./examples/mutex
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
	const procs = 4
	violations := 0
	observedOverlap := 0
	for seed := int64(0); seed < 10; seed++ {
		sim := gpd.NewSimulator(seed, gpd.NewFlawedMutexProcs(procs, 2))
		c, err := sim.Run()
		if err != nil {
			return err
		}
		inCS := func(e gpd.Event) bool { return c.Var(gpd.VarCS, e.ID) != 0 }

		// Did the recorded interleaving itself ever show two processes
		// inside? Walk the actual execution order (a linearization).
		overlap := false
		k := c.InitialCut()
		for !k.Equal(c.FinalCut()) {
			if c.CountTrue(k, inCS) >= 2 {
				overlap = true
				break
			}
			en := c.Enabled(k)
			k = c.Execute(k, c.Event(en[0]).Proc)
		}
		if overlap {
			observedOverlap++
		}

		// The detector question: is there ANY consistent cut with two
		// (or more) processes in the critical section? "count >= 2" is
		// a symmetric predicate, detected in polynomial time.
		bad, err := gpd.Detect(c, gpd.Spec{Family: gpd.FamilyCount, Var: gpd.VarCS, Rel: gpd.Ge, K: 2})
		if err != nil {
			return err
		}
		if bad.Holds {
			violations++
			fmt.Printf("seed %2d: VIOLATION — cut %v has %d processes in the critical section\n",
				seed, bad.Witness, c.CountTrue(bad.Witness, inCS))
		} else {
			fmt.Printf("seed %2d: no violation possible in this computation\n", seed)
		}
	}
	fmt.Printf("\n%d/10 runs admit a mutual exclusion violation;", violations)
	fmt.Printf(" only %d/10 exhibited one in the recorded schedule.\n", observedOverlap)
	fmt.Println("Detection over the partial order finds races the lucky schedule hid.")
	return nil
}
