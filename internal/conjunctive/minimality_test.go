package conjunctive

// Witness minimality: the CPDHB elimination never skips a usable
// candidate, so the witness cut it produces is the LEAST consistent cut
// satisfying the conjunction — the same cut the linear-predicate
// advancement and the slice bottom produce. This file pins that guarantee
// against the exhaustive lattice oracle.

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

func TestWitnessCutIsLeastSatisfying(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	verified := 0
	for trial := 0; trial < 150; trial++ {
		c := randomComputation(rng, 2+rng.Intn(2), 5)
		truth := randomTruth(rng, c, 0.5)
		res := detectTables(c, truth)
		if !res.Found {
			continue
		}
		verified++
		holds := func(k computation.Cut) bool {
			for p := range truth {
				if !truth[p][k[p]] {
					return false
				}
			}
			return true
		}
		if !holds(res.Cut) {
			t.Fatalf("trial %d: witness cut %v does not satisfy", trial, res.Cut)
		}
		// Minimality: no satisfying cut lies strictly below or
		// incomparable-below in any component.
		lattice.Explore(c, func(k computation.Cut) bool {
			if holds(k) && !res.Cut.Leq(k) {
				t.Fatalf("trial %d: satisfying cut %v not above witness %v", trial, k, res.Cut)
			}
			return true
		})
	}
	if verified < 40 {
		t.Fatalf("only %d/150 trials had witnesses; raise truth density", verified)
	}
}
