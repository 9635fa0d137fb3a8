package symmetric

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

// possibly is PossiblyPar run sequentially, untraced, without the range.
func possibly(c *computation.Computation, spec Spec, truth Truth) (bool, computation.Cut, error) {
	holds, cut, _, _, err := PossiblyPar(c, spec, truth, 1, nil)
	return holds, cut, err
}

func randomComputation(rng *rand.Rand, np, me, msgs int) *computation.Computation {
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 1 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	for tries := 0; tries < msgs; tries++ {
		p := computation.ProcID(rng.Intn(np))
		q := computation.ProcID(rng.Intn(np))
		if p == q {
			continue
		}
		i := 1 + rng.Intn(c.Len(p)-1)
		j := 1 + rng.Intn(c.Len(q)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
		}
	}
	return c.MustSeal()
}

func randomTruth(rng *rand.Rand, c *computation.Computation, density float64) Truth {
	tabs := make([][]bool, c.NumProcs())
	for p := range tabs {
		tabs[p] = make([]bool, c.Len(computation.ProcID(p)))
		for i := range tabs[p] {
			tabs[p][i] = rng.Float64() < density
		}
	}
	return func(e computation.Event) bool {
		return tabs[int(e.Proc)][e.Index]
	}
}

func TestSpecBuilders(t *testing.T) {
	if got := Xor(3).Levels; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Xor(3).Levels = %v, want [1 3]", got)
	}
	if got := Parity(4, false).Levels; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("Parity(4,false).Levels = %v, want [0 2 4]", got)
	}
	if got := NoSimpleMajority(4).Levels; len(got) != 1 || got[0] != 2 {
		t.Errorf("NoSimpleMajority(4).Levels = %v, want [2]", got)
	}
	if got := NoSimpleMajority(3).Levels; len(got) != 0 {
		t.Errorf("NoSimpleMajority(3).Levels = %v, want empty (odd n)", got)
	}
	if got := NoTwoThirdsMajority(6).Levels; len(got) != 3 || got[0] != 3 || got[2] != 5 {
		// 3m < 12 and 3(6-m) < 12 => m > 2 and m < 4?? recompute: m in {3}
		t.Logf("NoTwoThirdsMajority(6).Levels = %v", got)
	}
	if got := ExactlyK(5, 2).Levels; len(got) != 1 || got[0] != 2 {
		t.Errorf("ExactlyK(5,2).Levels = %v", got)
	}
	if got := NotAllEqual(3).Levels; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("NotAllEqual(3).Levels = %v, want [1 2]", got)
	}
}

func TestNoTwoThirdsMajorityExact(t *testing.T) {
	// n = 6: need 3m < 12 (m <= 3) and 18 - 3m < 12 (m >= 3): exactly {3}.
	if got := NoTwoThirdsMajority(6).Levels; len(got) != 1 || got[0] != 3 {
		t.Errorf("NoTwoThirdsMajority(6).Levels = %v, want [3]", got)
	}
	// n = 5: 3m < 10 (m <= 3) and 15 - 3m < 10 (m >= 2): {2, 3}.
	if got := NoTwoThirdsMajority(5).Levels; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("NoTwoThirdsMajority(5).Levels = %v, want [2 3]", got)
	}
}

// holdsAt evaluates the predicate at a cut directly: the oracles' view.
func holdsAt(c *computation.Computation, spec Spec, truth Truth, k computation.Cut) bool {
	count := c.CountTrue(k, func(e computation.Event) bool { return truth(e) })
	for _, m := range spec.Levels {
		if m == count {
			return true
		}
	}
	return false
}

func oracle(c *computation.Computation, spec Spec, truth Truth) bool {
	ok, _ := lattice.Possibly(c, func(cc *computation.Computation, k computation.Cut) bool {
		return holdsAt(cc, spec, truth, k)
	})
	return ok
}

func TestPossiblyMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	for trial := 0; trial < 150; trial++ {
		np := 2 + rng.Intn(3)
		c := randomComputation(rng, np, 4, 8)
		truth := randomTruth(rng, c, 0.4)
		specs := []Spec{
			Xor(np),
			Parity(np, false),
			NoSimpleMajority(np),
			ExactlyK(np, rng.Intn(np+1)),
			NotAllEqual(np),
			FromFunc(np, func(m int) bool { return rng.Intn(2) == 0 }),
		}
		for _, spec := range specs {
			got, cut, err := possibly(c, spec, truth)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, spec, err)
			}
			want := oracle(c, spec, truth)
			if got != want {
				t.Fatalf("trial %d: Possibly(%v) = %v, oracle = %v", trial, spec, got, want)
			}
			if got {
				if !c.CutConsistent(cut) {
					t.Fatalf("trial %d: witness cut %v inconsistent", trial, cut)
				}
				if !holdsAt(c, spec, truth, cut) {
					t.Fatalf("trial %d: predicate %v does not hold at witness %v", trial, spec, cut)
				}
			}
		}
	}
}

func TestDefinitelyMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 80; trial++ {
		np := 2 + rng.Intn(2)
		c := randomComputation(rng, np, 4, 6)
		truth := randomTruth(rng, c, 0.4)
		for _, spec := range []Spec{Xor(np), ExactlyK(np, 1), NotAllEqual(np)} {
			got, err := DefinitelyPar(c, spec, truth, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := lattice.Definitely(c, func(cc *computation.Computation, k computation.Cut) bool {
				return holdsAt(cc, spec, truth, k)
			})
			if got != want {
				t.Fatalf("trial %d: Definitely(%v) = %v, oracle = %v", trial, spec, got, want)
			}
		}
	}
}

func TestEmptyLevels(t *testing.T) {
	c := computation.New()
	c.AddProcesses(2)
	c.MustSeal()
	truth := func(computation.Event) bool { return true }
	ok, _, err := possibly(c, Spec{N: 2}, truth)
	if err != nil || ok {
		t.Errorf("empty levels: Possibly = %v, %v; want false", ok, err)
	}
	def, err := DefinitelyPar(c, Spec{N: 2}, truth, 1, nil)
	if err != nil || def {
		t.Errorf("empty levels: Definitely = %v, %v; want false", def, err)
	}
}

func TestOutOfRangeLevelsIgnored(t *testing.T) {
	c := computation.New()
	c.AddProcesses(2)
	c.MustSeal()
	truth := func(computation.Event) bool { return false }
	ok, _, err := possibly(c, Spec{N: 2, Levels: []int{-1, 7}}, truth)
	if err != nil || ok {
		t.Errorf("out-of-range levels: Possibly = %v, %v; want false", ok, err)
	}
}

func TestXorTwoProcessExample(t *testing.T) {
	// p0 flips its bit true at event a; p1 at event b, with a message
	// a -> b forcing order. XOR holds between the flips.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	truth := func(e computation.Event) bool { return e.ID == a || e.ID == b }
	ok, cut, err := possibly(c, Xor(2), truth)
	if err != nil || !ok {
		t.Fatalf("Possibly(Xor) = %v, %v; want true", ok, err)
	}
	if n := c.CountTrue(cut, func(e computation.Event) bool { return truth(e) }); n != 1 {
		t.Errorf("witness count = %d, want 1", n)
	}
	// Every run flips p0 first then p1, passing through count=1: XOR is
	// definite.
	def, err := DefinitelyPar(c, Xor(2), truth, 1, nil)
	if err != nil || !def {
		t.Errorf("Definitely(Xor) = %v, %v; want true", def, err)
	}
}
