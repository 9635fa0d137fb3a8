package relsum

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
)

// feed streams c's non-initial events into a tracker in a random
// linearization, pruning every pruneEvery deliveries using the
// vector-clock frontier rule, and returns the tracker.
func feed(t *testing.T, c *computation.Computation, name string, pruneEvery int, rng *rand.Rand) *RangeTracker {
	t.Helper()
	var baseline int64
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			baseline += c.Var(name, e.ID)
		}
		return true
	})
	tr := NewRangeTracker(baseline)

	// Random linearization of the topological order.
	order := randomLinearization(c, rng)
	np := c.NumProcs()
	last := make([][]int32, np) // latest delivered clock per process
	delivered := 0
	pruned := make(map[computation.EventID]bool)
	for _, id := range order {
		e := c.Event(id)
		var reqs []int64
		for _, p := range c.DirectPreds(id) {
			if !c.Event(p).IsInitial() {
				reqs = append(reqs, int64(p))
			}
		}
		tr.Observe(int64(id), sumOf(c, name).w(e), reqs)
		last[int(e.Proc)] = c.Clock(id)
		delivered++
		if pruneEvery > 0 && delivered%pruneEvery == 0 {
			tr.Flush()
			pruneFrontier(c, tr, last, pruned)
		}
	}
	tr.Flush()
	return tr
}

// pruneFrontier prunes every event below the component-wise minimum of
// the latest delivered clocks (the set of events in the causal past of
// every process's latest event).
func pruneFrontier(c *computation.Computation, tr *RangeTracker, last [][]int32, pruned map[computation.EventID]bool) {
	np := c.NumProcs()
	min := make([]int32, np)
	for q := range min {
		min[q] = int32(1 << 30)
	}
	for _, clk := range last {
		if clk == nil {
			return // some process has not reported: nothing is stable
		}
		for q, v := range clk {
			if v < min[q] {
				min[q] = v
			}
		}
	}
	var ids []int64
	c.Events(func(e computation.Event) bool {
		if !e.IsInitial() && !pruned[e.ID] && int32(e.Index)+1 <= min[int(e.Proc)] {
			ids = append(ids, int64(e.ID))
			pruned[e.ID] = true
		}
		return true
	})
	tr.Prune(ids)
}

// randomLinearization returns a random topological order of the events.
func randomLinearization(c *computation.Computation, rng *rand.Rand) []computation.EventID {
	n := c.NumEvents()
	indeg := make([]int, n)
	var ready []computation.EventID
	c.Events(func(e computation.Event) bool {
		indeg[int(e.ID)] = len(c.DirectPreds(e.ID))
		if indeg[int(e.ID)] == 0 {
			ready = append(ready, e.ID)
		}
		return true
	})
	var out []computation.EventID
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		id := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if !c.Event(id).IsInitial() {
			out = append(out, id)
		}
		for _, s := range c.DirectSuccs(id) {
			indeg[int(s)]--
			if indeg[int(s)] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// TestRangeTrackerAgreesWithSumRange streams random unit-step
// computations and checks that the online extrema match the offline
// closure computation, with and without pruning.
func TestRangeTrackerAgreesWithSumRange(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		c := gen.Random(gen.Params{Seed: seed, Procs: 2 + int(seed%4), Events: 8, MsgFrac: 0.4})
		gen.UnitStepVar(seed+1, c, "x")
		wantMin, wantMax := SumRange(c, "x")
		for _, pruneEvery := range []int{0, 1, 5} {
			tr := feed(t, c, "x", pruneEvery, rng)
			gotMin, gotMax := tr.Range()
			if gotMin != wantMin || gotMax != wantMax {
				t.Fatalf("seed %d pruneEvery %d: tracker range [%d,%d], SumRange [%d,%d]",
					seed, pruneEvery, gotMin, gotMax, wantMin, wantMax)
			}
		}
	}
}

// TestRangeTrackerArbitrarySteps checks the extrema (not equality
// detection) also agree for non-unit steps, where SumRange is still exact.
func TestRangeTrackerArbitrarySteps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := gen.Random(gen.Params{Seed: seed, Procs: 3, Events: 6, MsgFrac: 0.5})
		gen.ArbitraryStepVar(seed+7, c, "y", 5)
		wantMin, wantMax := SumRange(c, "y")
		tr := feed(t, c, "y", 3, rng)
		gotMin, gotMax := tr.Range()
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("seed %d: tracker range [%d,%d], SumRange [%d,%d]",
				seed, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

// TestRangeTrackerPruneBoundsWindow checks that frontier pruning actually
// shrinks the window on a well-connected computation.
func TestRangeTrackerPruneBoundsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := gen.Random(gen.Params{Seed: 11, Procs: 4, Events: 40, MsgFrac: 2.0})
	gen.UnitStepVar(3, c, "x")
	tr := feed(t, c, "x", 8, rng)
	if tr.Window() >= c.NumEvents()-c.NumProcs() {
		t.Fatalf("pruning never shrank the window: %d of %d events retained",
			tr.Window(), c.NumEvents()-c.NumProcs())
	}
	if tr.Flushes() == 0 {
		t.Fatal("no flushes recorded")
	}
}
