package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/obs"
)

var workerCounts = []int{1, 2, 3, 4, 8}

// sumAtLeast builds a predicate over the running sum of a generated
// unit-step variable — cheap enough to sweep full lattices, expensive
// enough that the witness position varies with the threshold.
func sumAtLeast(name string, k int64) Predicate {
	return func(c *computation.Computation, cut computation.Cut) bool {
		return c.SumVar(name, cut) >= k
	}
}

func parTestComputations(t *testing.T) []*computation.Computation {
	t.Helper()
	var cs []*computation.Computation
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		cs = append(cs, randomComputation(rng, 3+i%2, 4))
	}
	cs = append(cs, grid(4, 5), grid(0, 0))
	for i, c := range cs {
		gen.UnitStepVar(int64(100+i), c, "x")
	}
	return cs
}

// TestDefinitelyParMatchesSequential: verdict and every counter must be
// identical across worker counts.
func TestDefinitelyParMatchesSequential(t *testing.T) {
	for ci, c := range parTestComputations(t) {
		for _, k := range []int64{-100, 0, 2, 100} {
			pred := sumAtLeast("x", k)
			refTr := obs.NewTrace()
			ref := DefinitelyTraced(c, pred, refTr)
			for _, w := range workerCounts {
				tr := obs.NewTrace()
				got := DefinitelyPar(c, pred, w, tr)
				if got != ref {
					t.Fatalf("c%d k=%d w=%d: Definitely = %v, want %v", ci, k, w, got, ref)
				}
				assertSameCounters(t, refTr, tr, fmt.Sprintf("Definitely c%d k=%d w=%d", ci, k, w))
			}
		}
	}
}

func TestPathExistsParMatchesSequential(t *testing.T) {
	for ci, c := range parTestComputations(t) {
		from := c.InitialCut()
		to := c.FinalCut()
		for _, k := range []int64{-100, -1, 0, 1, 100} {
			allowed := sumAtLeast("x", k)
			refTr := obs.NewTrace()
			ref := PathExistsTraced(c, from, to, allowed, refTr)
			for _, w := range workerCounts {
				tr := obs.NewTrace()
				got := PathExistsPar(c, from, to, allowed, w, tr)
				if got != ref {
					t.Fatalf("c%d k=%d w=%d: PathExists = %v, want %v", ci, k, w, got, ref)
				}
				assertSameCounters(t, refTr, tr, fmt.Sprintf("PathExists c%d k=%d w=%d", ci, k, w))
			}
		}
		// Nil allowed (pure reachability) as well.
		for _, w := range workerCounts {
			if got := PathExistsPar(c, from, to, nil, w, nil); !got {
				t.Fatalf("c%d w=%d: PathExists(nil) = false, want true", ci, w)
			}
		}
	}
}

// TestLevelCuts: the level sets partition the lattice — summing their
// sizes over all levels must reproduce Count, every cut at level L has
// exactly L non-initial events, and the frontier order is identical for
// every worker count.
func TestLevelCuts(t *testing.T) {
	for ci, c := range parTestComputations(t) {
		maxLevel := c.NumEvents() - c.NumProcs() // non-initial events
		var total int64
		for l := 0; l <= maxLevel; l++ {
			ref := LevelCutsTraced(c, l, 1, nil)
			total += int64(len(ref))
			if len(ref) == 0 {
				t.Fatalf("c%d: no cuts at level %d <= %d", ci, l, maxLevel)
			}
			for _, k := range ref {
				lvl := 0
				for p := 0; p < c.NumProcs(); p++ {
					lvl += k[p] // component p counts non-initial events executed on p
				}
				if lvl != l {
					t.Fatalf("c%d: cut %v at level set %d has level %d", ci, k, l, lvl)
				}
			}
			for _, w := range workerCounts[1:] {
				got := LevelCutsTraced(c, l, w, nil)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("c%d level %d w=%d: frontier differs from sequential", ci, l, w)
				}
			}
		}
		if want := Count(c); total != want {
			t.Errorf("c%d: level sets cover %d cuts, want %d", ci, total, want)
		}
		if got := LevelCutsTraced(c, maxLevel+1, 1, nil); len(got) != 0 {
			t.Errorf("c%d: level %d past the final cut has %d cuts, want 0", ci, maxLevel+1, len(got))
		}
		if got := LevelCutsTraced(c, -1, 1, nil); got != nil {
			t.Errorf("c%d: negative level returned %v", ci, got)
		}
	}
}

func assertSameCounters(t *testing.T, want, got *obs.Trace, label string) {
	t.Helper()
	wr, gr := want.Report(), got.Report()
	if !reflect.DeepEqual(wr.Counters, gr.Counters) {
		t.Fatalf("%s: counters %v, want %v", label, gr.Counters, wr.Counters)
	}
}
