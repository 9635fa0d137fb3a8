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

func not(p Predicate) Predicate {
	return func(c *computation.Computation, cut computation.Cut) bool { return !p(c, cut) }
}

func parTestComputations(t *testing.T) []*computation.Computation {
	t.Helper()
	var cs []*computation.Computation
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		cs = append(cs, randomComputation(rng, 3+i%2, 4))
	}
	// Wide levels, so that several workers split them into several chunks.
	cs = append(cs, gen.Random(gen.Params{Seed: 11, Procs: 5, Events: 3, MsgFrac: 0.3}))
	cs = append(cs, grid(4, 5), grid(0, 0))
	for i, c := range cs {
		gen.UnitStepVar(int64(100+i), c, "x")
	}
	return cs
}

// assertSameAtEveryWorkerCount checks that the verdict and the region
// counter of one PathExists query are identical at every worker count,
// with one worker as the reference, and returns the verdict.
func assertSameAtEveryWorkerCount(t *testing.T, c *computation.Computation, from, to computation.Cut, allowed Predicate, label string) bool {
	t.Helper()
	refTr := obs.NewTrace()
	ref := PathExists(c, from, to, allowed, 1, refTr)
	for _, w := range workerCounts[1:] {
		tr := obs.NewTrace()
		if got := PathExists(c, from, to, allowed, w, tr); got != ref {
			t.Fatalf("%s w=%d: PathExists = %v, want %v", label, w, got, ref)
		}
		assertSameCounters(t, refTr, tr, fmt.Sprintf("PathExists %s w=%d", label, w))
	}
	return ref
}

// TestDefinitelyParMatchesSequential: Definitely's search — initial to
// final cut over the complement of the predicate — gives Definitely's
// verdict and the same region counter at every worker count.
func TestDefinitelyParMatchesSequential(t *testing.T) {
	for ci, c := range parTestComputations(t) {
		for _, k := range []int64{-100, -1, 0, 1, 2, 100} {
			pred := sumAtLeast("x", k)
			label := fmt.Sprintf("c%d Definitely(sum>=%d)", ci, k)
			avoids := assertSameAtEveryWorkerCount(t, c, c.InitialCut(), c.FinalCut(), not(pred), label)
			if want := Definitely(c, pred); !avoids != want {
				t.Fatalf("%s: search over the complement says %v, Definitely = %v", label, !avoids, want)
			}
		}
	}
}

// TestPathExistsParMatchesSequential: the verdict and the region counter
// of every search are identical at every worker count, with one worker
// as the reference. The queries cover regions that contain the
// endpoints, pure reachability, and interior endpoints.
func TestPathExistsParMatchesSequential(t *testing.T) {
	type query struct {
		label    string
		from, to computation.Cut
		allowed  Predicate
	}
	for ci, c := range parTestComputations(t) {
		initial, final := c.InitialCut(), c.FinalCut()
		qs := []query{{"nil", initial, final, nil}}
		for _, k := range []int64{-100, -1, 0, 1, 2, 100} {
			qs = append(qs, query{fmt.Sprintf("sum>=%d", k), initial, final, sumAtLeast("x", k)})
		}
		levels := c.NumEvents() - c.NumProcs()
		upper := LevelCutsTraced(c, 2*levels/3, 1, nil)
		for i := 0; i < len(upper); i += max(1, len(upper)/4) {
			to := upper[i]
			qs = append(qs, query{fmt.Sprintf("initial->%v", to), initial, to, nil},
				query{fmt.Sprintf("initial->%v sum>=-1", to), initial, to, sumAtLeast("x", -1)})
		}
		if mid := LevelCutsTraced(c, levels/3, 1, nil); len(mid) > 0 {
			qs = append(qs, query{fmt.Sprintf("%v->final", mid[len(mid)/2]), mid[len(mid)/2], final, nil})
		}
		for _, q := range qs {
			got := assertSameAtEveryWorkerCount(t, c, q.from, q.to, q.allowed, fmt.Sprintf("c%d %s", ci, q.label))
			if q.allowed == nil && !got {
				t.Fatalf("c%d %s: pure reachability from <= to is false", ci, q.label)
			}
		}
	}
}

// runPath is the run-enumeration oracle for PathExists: some run passes
// through from and later through to, with every cut in between, the
// endpoints included, allowed.
func runPath(c *computation.Computation, from, to computation.Cut, allowed Predicate) bool {
	found := false
	Runs(c, func(run []computation.EventID) bool {
		k := c.InitialCut()
		inside := false
		for i := 0; ; i++ {
			inside = inside || k.Equal(from)
			if inside && !allowed(c, k) {
				return true
			}
			if inside && k.Equal(to) {
				found = true
				return false
			}
			if i == len(run) {
				return true
			}
			k[int(c.Event(run[i]).Proc)]++
		}
	})
	return found
}

// TestPathExistsMatchesRunEnumeration: on random computations, random
// regions and random endpoints from <= to (interior cuts included), the
// search agrees with run enumeration at every worker count.
func TestPathExistsMatchesRunEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trues := 0
	for trial := 0; trial < 40; trial++ {
		c := randomComputation(rng, 3, 3)
		var cuts []computation.Cut
		Explore(c, func(k computation.Cut) bool {
			cuts = append(cuts, k)
			return true
		})
		region := make(map[string]bool)
		for _, k := range cuts {
			if rng.Intn(5) != 0 {
				region[k.Key()] = true
			}
		}
		allowed := func(_ *computation.Computation, k computation.Cut) bool { return region[k.Key()] }
		for q := 0; q < 8; q++ {
			from := cuts[rng.Intn(len(cuts))]
			var above []computation.Cut
			for _, k := range cuts {
				if from.Leq(k) {
					above = append(above, k)
				}
			}
			to := above[rng.Intn(len(above))]
			want := runPath(c, from, to, allowed)
			if want {
				trues++
			}
			for _, w := range []int{1, 2, 3, 8} {
				if got := PathExists(c, from, to, allowed, w, nil); got != want {
					t.Fatalf("trial %d %v->%v w=%d: PathExists = %v, run enumeration = %v", trial, from, to, w, got, want)
				}
			}
		}
	}
	if trues == 0 || trues == 40*8 {
		t.Fatalf("degenerate draw: %d of %d queries have a path", trues, 40*8)
	}
}

// TestSweepAdmitsBeforeGoal: a successor outside the admitted region never
// ends the search, even when goal accepts it. In a 2x2 grid admitting only
// cuts where process 0 has not moved, the goal "process 0 moved" is never
// reached, and each level holds the single cut <0,d>.
func TestSweepAdmitsBeforeGoal(t *testing.T) {
	c := grid(2, 2)
	s := newSweep(c, 1,
		func(k computation.Cut) bool { return k[0] == 0 },
		func(k computation.Cut) bool { return k[0] > 0 })
	level := []computation.Cut{c.InitialCut()}
	for d := 1; len(level) > 0; d++ {
		next, parent := s.next(level)
		if parent >= 0 {
			t.Fatalf("level %d: goal reached through a successor of %v outside the region", d, level[parent])
		}
		if want := []computation.Cut{{0, d}}; d <= 2 && !reflect.DeepEqual(next, want) {
			t.Fatalf("level %d = %v, want %v", d, next, want)
		}
		level = next
	}
}

// TestLevelCuts: the level sets partition the lattice — summing their
// sizes over all levels must reproduce Count, every cut at level L has
// exactly L non-initial events, and the frontier order and the counter
// are identical for every worker count.
func TestLevelCuts(t *testing.T) {
	for ci, c := range parTestComputations(t) {
		maxLevel := c.NumEvents() - c.NumProcs() // non-initial events
		var total int64
		for l := 0; l <= maxLevel; l++ {
			refTr := obs.NewTrace()
			ref := LevelCutsTraced(c, l, 1, refTr)
			total += int64(len(ref))
			if len(ref) == 0 {
				t.Fatalf("c%d: no cuts at level %d <= %d", ci, l, maxLevel)
			}
			for _, k := range ref {
				if k.Size() != l {
					t.Fatalf("c%d: cut %v at level set %d has level %d", ci, k, l, k.Size())
				}
			}
			for _, w := range workerCounts[1:] {
				tr := obs.NewTrace()
				got := LevelCutsTraced(c, l, w, tr)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("c%d level %d w=%d: frontier differs from one worker's", ci, l, w)
				}
				assertSameCounters(t, refTr, tr, fmt.Sprintf("LevelCutsTraced c%d level %d w=%d", ci, l, w))
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
