package lattice

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// grid builds two independent processes with n and m non-initial events;
// its lattice is the full (n+1) x (m+1) grid.
func grid(n, m int) *computation.Computation {
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	for i := 0; i < n; i++ {
		c.AddInternal(p0)
	}
	for i := 0; i < m; i++ {
		c.AddInternal(p1)
	}
	return c.MustSeal()
}

func randomComputation(rng *rand.Rand, np, me int) *computation.Computation {
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 1 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	for tries := 0; tries < np*me; tries++ {
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

func TestCountGrid(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{0, 0}, {1, 0}, {2, 3}, {4, 4}} {
		c := grid(tc.n, tc.m)
		want := int64((tc.n + 1) * (tc.m + 1))
		if got := Count(c); got != want {
			t.Errorf("Count(grid %dx%d) = %d, want %d", tc.n, tc.m, got, want)
		}
	}
}

func TestCountChain(t *testing.T) {
	// Two processes fully synchronized by a message ladder have a linear
	// lattice segment; verify against brute-force consistency check.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		c := randomComputation(rng, 3, 4)
		want := int64(0)
		bruteAllCuts(c, func(k computation.Cut) {
			if c.CutConsistent(k) {
				want++
			}
		})
		if got := Count(c); got != want {
			t.Fatalf("trial %d: Count = %d, brute = %d", trial, got, want)
		}
	}
}

func bruteAllCuts(c *computation.Computation, fn func(computation.Cut)) {
	k := c.InitialCut()
	var rec func(p int)
	rec = func(p int) {
		if p == c.NumProcs() {
			fn(k.Clone())
			return
		}
		for i := 0; i < c.Len(computation.ProcID(p)); i++ {
			k[p] = i
			rec(p + 1)
		}
		k[p] = 0
	}
	rec(0)
}

func TestExploreVisitsConsistentCutsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		c := randomComputation(rng, 3, 4)
		seen := make(map[string]int)
		Explore(c, func(k computation.Cut) bool {
			if !c.CutConsistent(k) {
				t.Fatalf("Explore visited inconsistent cut %v", k)
			}
			seen[k.Key()]++
			return true
		})
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("cut %s visited %d times", key, n)
			}
		}
	}
}

func TestExploreEarlyStop(t *testing.T) {
	c := grid(3, 3)
	n := 0
	Explore(c, func(computation.Cut) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d cuts, want 5", n)
	}
}

func TestPossiblyFindsWitness(t *testing.T) {
	c := grid(2, 2)
	pred := func(_ *computation.Computation, k computation.Cut) bool {
		return k[0] == 2 && k[1] == 1
	}
	ok, w := Possibly(c, pred)
	if !ok {
		t.Fatal("Possibly = false, want true")
	}
	if !pred(c, w) {
		t.Fatalf("witness %v does not satisfy predicate", w)
	}
	never := func(*computation.Computation, computation.Cut) bool { return false }
	if ok, _ := Possibly(c, never); ok {
		t.Error("Possibly(false) must be false")
	}
}

// bruteDefinitely checks the strong modality by enumerating all runs.
func bruteDefinitely(c *computation.Computation, pred Predicate) bool {
	all := true
	Runs(c, func(run []computation.EventID) bool {
		k := c.InitialCut()
		hit := pred(c, k)
		for _, id := range run {
			k[int(c.Event(id).Proc)]++
			if pred(c, k) {
				hit = true
			}
		}
		if !hit {
			all = false
			return false
		}
		return true
	})
	return all
}

func TestDefinitelyMatchesRunEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		c := randomComputation(rng, 3, 3)
		// Random "sum of marked events" style predicate.
		marks := make(map[string]bool)
		Explore(c, func(k computation.Cut) bool {
			if rng.Intn(4) == 0 {
				marks[k.Key()] = true
			}
			return true
		})
		pred := func(_ *computation.Computation, k computation.Cut) bool {
			return marks[k.Key()]
		}
		want := bruteDefinitely(c, pred)
		if got := Definitely(c, pred); got != want {
			t.Fatalf("trial %d: Definitely = %v, brute = %v", trial, got, want)
		}
	}
}

func TestDefinitelyInitialCut(t *testing.T) {
	c := grid(2, 2)
	atInitial := func(_ *computation.Computation, k computation.Cut) bool {
		return k.Size() == 0
	}
	if !Definitely(c, atInitial) {
		t.Error("predicate true at initial cut must be definite")
	}
	atCorner := func(_ *computation.Computation, k computation.Cut) bool {
		return k[0] == 2 && k[1] == 0
	}
	if Definitely(c, atCorner) {
		t.Error("a corner cut is avoidable in a grid")
	}
	// A full anti-chain barrier: all cuts at level 2 of the 2x2 grid.
	atLevel := func(_ *computation.Computation, k computation.Cut) bool {
		return k.Size() == 2
	}
	if !Definitely(c, atLevel) {
		t.Error("every run passes through every level")
	}
}

func TestPathExists(t *testing.T) {
	c := grid(2, 2)
	from := computation.Cut{0, 0}
	to := computation.Cut{2, 2}
	if !PathExists(c, from, to, nil, 1, nil) {
		t.Error("path to final cut must exist")
	}
	if PathExists(c, to, from, nil, 1, nil) {
		t.Error("no backward path")
	}
	// Forbid the whole middle level: no path can cross.
	avoidMid := func(_ *computation.Computation, k computation.Cut) bool {
		return k.Size() != 2
	}
	if PathExists(c, from, to, avoidMid, 1, nil) {
		t.Error("every path crosses level 2; blocking it must cut all paths")
	}
	// Allow one middle cut back.
	holeAt := func(_ *computation.Computation, k computation.Cut) bool {
		return k.Size() != 2 || (k[0] == 1 && k[1] == 1)
	}
	if !PathExists(c, from, to, holeAt, 1, nil) {
		t.Error("path through the single allowed middle cut must exist")
	}
	if !PathExists(c, from, from, nil, 1, nil) {
		t.Error("trivial path from a cut to itself")
	}
}

func TestRunsGrid(t *testing.T) {
	// Runs of an n x m grid = binomial(n+m, n).
	c := grid(2, 2)
	n := 0
	Runs(c, func(run []computation.EventID) bool {
		if len(run) != 4 {
			t.Fatalf("run length %d, want 4", len(run))
		}
		n++
		return true
	})
	if n != 6 {
		t.Errorf("runs = %d, want C(4,2) = 6", n)
	}
}

func TestRunsAreLinearizations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c := randomComputation(rng, 3, 3)
	Runs(c, func(run []computation.EventID) bool {
		pos := make(map[computation.EventID]int, len(run))
		for i, id := range run {
			pos[id] = i
		}
		for _, a := range run {
			for _, b := range run {
				if c.Precedes(a, b) && pos[a] > pos[b] {
					t.Fatalf("run violates order: %v before %v", c.Event(b), c.Event(a))
				}
			}
		}
		return true
	})
}

func TestRunsEarlyStop(t *testing.T) {
	c := grid(3, 3)
	n := 0
	Runs(c, func([]computation.EventID) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop: %d visits, want 1", n)
	}
}

func TestSumRange(t *testing.T) {
	// p0: x goes 0 -> 1 -> 2; p1: y goes 0 -> -1. Independent.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a1 := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b1 := c.AddInternal(p1)
	c.SetVar("x", a1, 1)
	c.SetVar("x", a2, 2)
	c.SetVar("x", b1, -1)
	c.MustSeal()
	min, max := SumRange(c, "x")
	if min != -1 || max != 2 {
		t.Errorf("SumRange = [%d,%d], want [-1,2]", min, max)
	}
}
