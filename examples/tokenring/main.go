// Tokenring: check conservation predicates on a token-passing ring with
// the relational sum detectors of Section 4 of the paper.
//
// Each process's variable counts the tokens it holds; the global token
// count is a unit-step sum, so Possibly(sum == k) and Definitely(sum == k)
// are decided exactly. While a token is in flight the observable count
// drops — "exactly k tokens" is the paper's own example of a predicate
// that was previously undetectable in polynomial time.
//
//	go run ./examples/tokenring
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
	const (
		procs  = 6
		tokens = 2
	)
	sim := gpd.NewSimulator(42, gpd.NewTokenRingProcs(procs, tokens, 2, 4))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	fmt.Printf("ring of %d processes, %d tokens: %d events, %d messages\n",
		procs, tokens, c.NumEvents(), len(c.Messages()))

	if err := gpd.ValidateUnitStep(c, gpd.VarTokens); err != nil {
		return fmt.Errorf("token counts should be unit-step: %w", err)
	}
	// Conservation violation check: can the count ever exceed the
	// number of tokens in the system? (It must not.) The report of any
	// Possibly query on the sum carries its exact range.
	over, err := gpd.Detect(c, gpd.Spec{Family: gpd.FamilySum, Var: gpd.VarTokens, Rel: gpd.Gt, K: tokens})
	if err != nil {
		return err
	}
	fmt.Printf("observable token count range: [%d, %d]\n", over.Min, over.Max)

	for k := int64(0); k <= tokens+1; k++ {
		eq := gpd.Spec{Family: gpd.FamilySum, Var: gpd.VarTokens, Rel: gpd.Eq, K: k}
		poss, err := gpd.Detect(c, eq)
		if err != nil {
			return err
		}
		def, err := gpd.Detect(c, eq, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			return err
		}
		fmt.Printf("tokens == %d: possibly=%-5v definitely=%v\n", k, poss.Holds, def.Holds)
	}
	fmt.Printf("conservation violated (count > %d possible): %v\n", tokens, over.Holds)

	// The same question expressed as a symmetric predicate on the
	// boolean "holds at least one token": exactly-k-holders.
	holders, err := gpd.Detect(c, gpd.Spec{Family: gpd.FamilyCount, Var: gpd.VarTokens, Rel: gpd.Eq, K: tokens})
	if err != nil {
		return err
	}
	fmt.Printf("some cut with exactly %d token holders: %v", tokens, holders.Holds)
	if holders.Holds {
		fmt.Printf(" (witness %v)", holders.Witness)
	}
	fmt.Println()
	return nil
}
