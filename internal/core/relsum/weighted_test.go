package relsum

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/simulator"
)

// bruteInFlight counts messages sent-but-not-received at a cut.
func bruteInFlight(c *computation.Computation, k computation.Cut) int64 {
	var n int64
	for _, m := range c.Messages() {
		if k.Contains(c.Event(m.Send)) && !k.Contains(c.Event(m.Receive)) {
			n++
		}
	}
	return n
}

func TestInFlightWeightMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 0.8})
		w := InFlightWeight(c)
		lattice.Explore(c, func(k computation.Cut) bool {
			want := bruteInFlight(c, k)
			got := WeightedAt(c, 0, w, k)
			if got != want {
				t.Fatalf("trial %d cut %v: weighted %d, brute %d", trial, k, got, want)
			}
			return true
		})
	}
}

func TestInFlightRangeMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 80; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 1.0})
		gotMin, gotMax := InFlightRangePar(c, 1, nil)
		wantMin, wantMax := int64(1<<62), int64(-1<<62)
		lattice.Explore(c, func(k computation.Cut) bool {
			n := bruteInFlight(c, k)
			if n < wantMin {
				wantMin = n
			}
			if n > wantMax {
				wantMax = n
			}
			return true
		})
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("trial %d: InFlightRangePar = [%d,%d], lattice = [%d,%d]",
				trial, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

func TestInFlightMinIsZero(t *testing.T) {
	// The initial cut has nothing in flight, so min is always 0.
	c := gen.Random(gen.Params{Seed: 5, Procs: 4, Events: 8, MsgFrac: 0.8})
	min, _ := InFlightRangePar(c, 1, nil)
	if min != 0 {
		t.Fatalf("min in-flight = %d, want 0", min)
	}
}

func TestPossiblyWeightedAllRelops(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.8})
		w := InFlightWeight(c)
		for _, r := range []Relop{Lt, Le, Eq, Ge, Gt, Ne} {
			for k := int64(0); k <= 3; k++ {
				got, _, _, _, err := PossiblyWeightedPar(c, 0, w, r, k, 1, nil)
				if errors.Is(err, ErrNotUnitStep) {
					continue // an event carries several messages
				}
				if err != nil {
					t.Fatal(err)
				}
				want, _ := lattice.Possibly(c, func(cc *computation.Computation, cut computation.Cut) bool {
					return r.Eval(bruteInFlight(cc, cut), k)
				})
				if got != want {
					t.Fatalf("trial %d: PossiblyWeightedPar(inflight %v %d) = %v, oracle = %v",
						trial, r, k, got, want)
				}
			}
		}
	}
}

func TestPossiblyQuiescentWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 5, MsgFrac: 0.6})
		w := InFlightWeight(c)
		if weighted(0, w).validate(c, true) != nil {
			continue // multi-message events: out of scope for equality
		}
		checked++
		_, max := InFlightRangePar(c, 1, nil)
		for k := int64(0); k <= max; k++ {
			ok, cut, _, _, err := PossiblyWeightedPar(c, 0, w, Eq, k, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: occupancy %d within [0,%d] must be witnessed", trial, k, max)
			}
			if got := bruteInFlight(c, cut); got != k {
				t.Fatalf("trial %d: witness has %d in flight, want %d", trial, got, k)
			}
			if !c.CutConsistent(cut) {
				t.Fatalf("trial %d: witness cut inconsistent", trial)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d/80 computations were unit-weight; generator too message-dense", checked)
	}
}

func TestWeightedSumEquivalentToVarSum(t *testing.T) {
	// The per-variable SumRange must equal the weighted formulation with
	// delta weights — the refactoring identity.
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 50; trial++ {
		c := unitStepComputation(rng, 3, 4, 6)
		var base int64
		for p := 0; p < c.NumProcs(); p++ {
			base += c.Var(varName, c.Initial(computation.ProcID(p)).ID)
		}
		w := sumOf(c, varName).w
		wmin, wmax := WeightedRangePar(c, base, w, 1, nil)
		smin, smax := SumRange(c, varName)
		if wmin != smin || wmax != smax {
			t.Fatalf("trial %d: weighted [%d,%d] != var-sum [%d,%d]", trial, wmin, wmax, smin, smax)
		}
	}
}

func TestTokenRingChannelBound(t *testing.T) {
	// In a token ring with T tokens, at most T messages are ever in
	// flight simultaneously.
	for seed := int64(0); seed < 8; seed++ {
		sim := simulator.New(seed, simulator.NewTokenRingProcs(5, 2, 1, 3))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		min, max := InFlightRangePar(c, 1, nil)
		if min != 0 {
			t.Fatalf("seed %d: min in-flight = %d", seed, min)
		}
		if max > 2 {
			t.Fatalf("seed %d: %d tokens in flight simultaneously, ring has 2", seed, max)
		}
		// Conservation: held + in-flight is the same at every cut, so the
		// combined ideal-sum quantity has a one-point range.
		held, flight := sumOf(c, simulator.VarTokens), InFlightWeight(c)
		combined := func(e computation.Event) int64 { return held.w(e) + flight(e) }
		if min, max := WeightedRangePar(c, held.base, combined, 1, nil); min != 2 || max != 2 {
			t.Fatalf("seed %d: held+in-flight range [%d,%d], want constant 2", seed, min, max)
		}
	}
}

func TestDefinitelyWeightedMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(479))
	relops := []Relop{Lt, Le, Eq, Ge, Gt, Ne}
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.6})
		w := InFlightWeight(c)
		unit := weighted(0, w).validate(c, true) == nil
		for _, r := range relops {
			for k := int64(0); k <= 2; k++ {
				got, err := DefinitelyWeightedPar(c, 0, w, r, k, 1, nil)
				if err != nil {
					if r == Eq && !unit {
						continue
					}
					t.Fatal(err)
				}
				want := lattice.Definitely(c, func(cc *computation.Computation, cut computation.Cut) bool {
					return r.Eval(bruteInFlight(cc, cut), k)
				})
				if got != want {
					t.Fatalf("trial %d: DefinitelyWeightedPar(inflight %v %d) = %v, oracle = %v",
						trial, r, k, got, want)
				}
			}
		}
	}
}

func TestDefinitelyWeightedUnknownRelop(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 1, Procs: 2, Events: 2, MsgFrac: 0})
	if _, err := DefinitelyWeightedPar(c, 0, InFlightWeight(c), Relop(42), 0, 1, nil); err == nil {
		t.Fatal("unknown relop must error")
	}
}
