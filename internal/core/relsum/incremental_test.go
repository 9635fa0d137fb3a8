package relsum

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// feed streams c's non-initial events into a tracker in a random
// linearization, pruning every pruneEvery deliveries using the
// vector-clock frontier rule, and returns the tracker.
func feed(t *testing.T, c *computation.Computation, name string, pruneEvery int, rng *rand.Rand, trace *obs.Trace) *RangeTracker {
	t.Helper()
	var baseline int64
	c.Events(func(e computation.Event) bool {
		if e.IsInitial() {
			baseline += c.Var(name, e.ID)
		}
		return true
	})
	tr := NewRangeTracker(baseline)
	tr.SetTrace(trace)

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
			tr := feed(t, c, "x", pruneEvery, rng, nil)
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
		tr := feed(t, c, "y", 3, rng, nil)
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
	trace := obs.NewTrace()
	tr := feed(t, c, "x", 8, rng, trace)
	if tr.Window() >= c.NumEvents()-c.NumProcs() {
		t.Fatalf("pruning never shrank the window: %d of %d events retained",
			tr.Window(), c.NumEvents()-c.NumProcs())
	}
	if trace.Counter("maxflow.closures") == 0 {
		t.Fatal("no closure solves recorded")
	}
}

// unitStream is an endless synthetic ±1 stream over 8 processes in the
// id space and reduced requirement form detect's frontier produces: each
// event requires its local predecessor and, a quarter of the time, the
// latest event of one other process.
type unitStream struct {
	rng    *rand.Rand
	index  [8]int64 // events emitted per process
	fifo   []int64  // delivered ids not yet handed to Prune, oldest first
	absSum int64    // Σ|w| emitted
	reqs   []int64
}

func newUnitStream(seed int64) *unitStream {
	return &unitStream{rng: rand.New(rand.NewSource(seed)), reqs: make([]int64, 0, 2)}
}

// observe emits k events into the tracker.
func (s *unitStream) observe(tr *RangeTracker, k int) {
	const procs = int64(len(s.index))
	for ; k > 0; k-- {
		p := s.rng.Int63n(procs)
		s.index[p]++
		s.reqs = s.reqs[:0]
		if s.index[p] >= 2 {
			s.reqs = append(s.reqs, (s.index[p]-1)*procs+p)
		}
		if q := s.rng.Int63n(procs); q != p && s.index[q] >= 1 && s.rng.Intn(4) == 0 {
			s.reqs = append(s.reqs, s.index[q]*procs+q)
		}
		w := int64(s.rng.Intn(3) - 1)
		s.absSum += max(w, -w)
		id := s.index[p]*procs + p
		tr.Observe(id, w, s.reqs)
		s.fifo = append(s.fifo, id)
	}
}

// prune drops all but the newest window deliveries: a prefix of the
// delivery order, hence downward closed.
func (s *unitStream) prune(tr *RangeTracker, window int) {
	if n := len(s.fifo) - window; n > 0 {
		tr.Prune(s.fifo[:n])
		s.fifo = s.fifo[:copy(s.fifo, s.fifo[n:])]
	}
}

// TestRangeTrackerWorkBound checks the warm start's two promises on a
// long unit-weight stream flushed every 4 events and pruned to a
// 64-event window: augmenting paths are bounded by the weight that
// passed through — every unit of flow is pushed at most once and handed
// back by a prune at most once (the Theorem 4 unit-weight bound),
// whatever the window size — and a steady-state cycle allocates nothing.
func TestRangeTrackerWorkBound(t *testing.T) {
	trace := obs.NewTrace()
	tr := NewRangeTracker(0)
	tr.SetTrace(trace)
	s := newUnitStream(5)
	for i := 0; i < 4096/4; i++ {
		s.observe(tr, 4)
		tr.Flush()
		s.prune(tr, 64)
	}
	if paths := trace.Counter("maxflow.augmenting_paths"); paths == 0 || paths > 2*s.absSum {
		t.Fatalf("%d augmenting paths over a stream of total |weight| %d, want 1..%d", paths, s.absSum, 2*s.absSum)
	}
	if solves := trace.Counter("maxflow.closures"); solves != 2*4096/4 {
		t.Fatalf("%d closure solves for %d flushes, want two each", solves, 4096/4)
	}
	tr.SetTrace(nil)
	if allocs := testing.AllocsPerRun(200, func() {
		s.observe(tr, 4)
		tr.Flush()
		s.prune(tr, 64)
	}); allocs != 0 {
		t.Fatalf("steady-state observe/flush/prune cycle allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkRangeTrackerFlush is the layer-level cost of one cycle —
// observe the new events, flush, prune back to the window — at two
// window sizes and two batch sizes.
func BenchmarkRangeTrackerFlush(b *testing.B) {
	for _, window := range []int{64, 256} {
		for _, fresh := range []int{2, 64} {
			b.Run(fmt.Sprintf("window=%d/new=%d", window, fresh), func(b *testing.B) {
				trace := obs.NewTrace()
				tr := NewRangeTracker(0)
				tr.SetTrace(trace)
				s := newUnitStream(1)
				s.observe(tr, window)
				tr.Flush()
				before := trace.Counter("maxflow.augmenting_paths")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.observe(tr, fresh)
					tr.Flush()
					s.prune(tr, window)
				}
				b.ReportMetric(float64(trace.Counter("maxflow.augmenting_paths")-before)/float64(b.N), "augmentations/flush")
			})
		}
	}
}
