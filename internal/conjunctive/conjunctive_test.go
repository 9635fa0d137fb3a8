package conjunctive

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

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

func randomTruth(rng *rand.Rand, c *computation.Computation, density float64) [][]bool {
	truth := make([][]bool, c.NumProcs())
	for p := range truth {
		truth[p] = make([]bool, c.Len(computation.ProcID(p)))
		for i := range truth[p] {
			truth[p][i] = rng.Float64() < density
		}
	}
	return truth
}

func latticePossibly(c *computation.Computation, truth [][]bool) bool {
	ok, _ := lattice.Possibly(c, func(_ *computation.Computation, k computation.Cut) bool {
		for p := range truth {
			if !truth[p][k[p]] {
				return false
			}
		}
		return true
	})
	return ok
}

func TestDetectMatchesLatticeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		c := randomComputation(rng, 2+rng.Intn(3), 5)
		truth := randomTruth(rng, c, 0.4)
		want := latticePossibly(c, truth)
		res := detectTables(c, truth)
		if res.Found != want {
			t.Fatalf("trial %d: Detect = %v, oracle = %v", trial, res.Found, want)
		}
		if res.Found {
			verifyWitness(t, c, truth, res)
		}
	}
}

func verifyWitness(t *testing.T, c *computation.Computation, truth [][]bool, res Result) {
	t.Helper()
	if !c.PairwiseConsistent(res.Witness) {
		t.Fatalf("witness %v not pairwise consistent", res.Witness)
	}
	for _, id := range res.Witness {
		e := c.Event(id)
		if !truth[int(e.Proc)][e.Index] {
			t.Fatalf("witness event %v not a true event", e)
		}
	}
	if !c.CutConsistent(res.Cut) {
		t.Fatalf("witness cut %v not consistent", res.Cut)
	}
	for _, id := range res.Witness {
		if !res.Cut.PassesThrough(c.Event(id)) {
			t.Fatalf("cut %v misses witness %v", res.Cut, c.Event(id))
		}
	}
}

func TestDetectUnconstrainedProcesses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := randomComputation(rng, 4, 4)
	truth := randomTruth(rng, c, 0.5)
	truth[1] = nil // unconstrained
	truth[3] = nil
	res := detectTables(c, truth)
	// Oracle: ignore nil rows.
	ok, _ := lattice.Possibly(c, func(_ *computation.Computation, k computation.Cut) bool {
		for p, row := range truth {
			if row != nil && !row[k[p]] {
				return false
			}
		}
		return true
	})
	if res.Found != ok {
		t.Fatalf("Detect = %v, oracle = %v", res.Found, ok)
	}
}

func TestDetectEmptySpec(t *testing.T) {
	c := computation.New()
	c.AddProcess()
	c.MustSeal()
	res := DetectTraced(c, nil, nil)
	if !res.Found {
		t.Fatal("empty conjunction must hold")
	}
	if len(res.Witness) != 0 {
		t.Fatalf("witness = %v, want empty", res.Witness)
	}
}

// detectTables runs the detector with the local predicates given as
// per-process boolean tables indexed by local event index (the
// representation the generators produce). Nil rows are unconstrained.
func detectTables(c *computation.Computation, truth [][]bool) Result {
	locals := make(map[computation.ProcID]LocalPredicate)
	for p, row := range truth {
		if row != nil {
			locals[computation.ProcID(p)] = func(e computation.Event) bool { return e.Index < len(row) && row[e.Index] }
		}
	}
	return DetectTraced(c, locals, nil)
}

func TestDetectNoTrueEvents(t *testing.T) {
	c := computation.New()
	p := c.AddProcess()
	c.AddInternal(p)
	c.MustSeal()
	res := DetectTraced(c, map[computation.ProcID]LocalPredicate{
		p: func(computation.Event) bool { return false },
	}, nil)
	if res.Found {
		t.Fatal("no true events: must not be found")
	}
}

func TestDetectInitialStates(t *testing.T) {
	// Predicate true exactly at both initial states: the initial cut is
	// the witness.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	c.MustSeal()
	res := DetectTraced(c, map[computation.ProcID]LocalPredicate{
		p0: func(e computation.Event) bool { return e.IsInitial() },
		p1: func(e computation.Event) bool { return e.IsInitial() },
	}, nil)
	if !res.Found {
		t.Fatal("initial-state conjunction must be found")
	}
	if res.Cut.Size() != 0 {
		t.Fatalf("cut = %v, want initial cut", res.Cut)
	}
}

func TestDetectOrderedTrueEventsEliminated(t *testing.T) {
	// p0's only true event a happened-strictly-before p1's only true
	// event region ends: with a -> b and next(a) -> b, no consistent
	// pair exists when b's cut forces past next(a).
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a2, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	res := DetectTraced(c, map[computation.ProcID]LocalPredicate{
		p0: func(e computation.Event) bool { return e.ID == a },
		p1: func(e computation.Event) bool { return e.ID == b },
	}, nil)
	if res.Found {
		t.Fatal("a and b are inconsistent (next(a) -> b): must not be found")
	}
	if res.Eliminated == 0 {
		t.Error("expected at least one elimination")
	}
}

// TestCheckerMatchesOffline replays random computations through the online
// checker in a random linearization and compares with the offline detector.
func TestCheckerMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 150; trial++ {
		c := randomComputation(rng, 2+rng.Intn(3), 4)
		truth := randomTruth(rng, c, 0.4)
		// Only non-initial events can be streamed by a real monitor;
		// force initial states false for a fair comparison.
		for p := range truth {
			truth[p][0] = false
		}
		offline := detectTables(c, truth)

		procs := make([]int, c.NumProcs())
		for p := range procs {
			procs[p] = p
		}
		ch := NewChecker(procs)
		// Replay one random run, maintaining online vector clocks.
		clocks := make([]*vclock.Clock, c.NumProcs())
		for p := range clocks {
			clocks[p] = vclock.NewClock(p, c.NumProcs())
		}
		stampOf := make(map[computation.EventID]vclock.VC)
		k := c.InitialCut()
		final := c.FinalCut()
		found := false
		for !k.Equal(final) {
			en := c.Enabled(k)
			id := en[rng.Intn(len(en))]
			e := c.Event(id)
			// Merge timestamps of all message predecessors, then
			// tick once for the event itself.
			var incoming vclock.VC
			for _, pre := range c.DirectPreds(id) {
				if c.Event(pre).Proc != e.Proc {
					if incoming == nil {
						incoming = stampOf[pre].Clone()
					} else {
						incoming.Merge(stampOf[pre])
					}
				}
			}
			var stamp vclock.VC
			if incoming != nil {
				stamp = clocks[int(e.Proc)].Receive(incoming)
			} else {
				stamp = clocks[int(e.Proc)].Event()
			}
			stampOf[id] = stamp
			if truth[int(e.Proc)][e.Index] {
				if ch.Observe(int(e.Proc), stamp) {
					found = true
				}
			}
			k = c.Execute(k, e.Proc)
		}
		if found != offline.Found {
			t.Fatalf("trial %d: online = %v, offline = %v", trial, found, offline.Found)
		}
		if found && ch.Witness() == nil {
			t.Fatal("found but no witness")
		}
		if !found && ch.Witness() != nil {
			t.Fatal("not found but witness present")
		}
	}
}

func TestCheckerIgnoresUninvolved(t *testing.T) {
	ch := NewChecker([]int{0, 1})
	if ch.Observe(7, vclock.VC{1, 1, 1}) {
		t.Fatal("observation from uninvolved process must not trigger")
	}
	if ch.Found() {
		t.Fatal("nothing should be found yet")
	}
}

func TestCheckerSimpleConcurrent(t *testing.T) {
	// Two processes with concurrent true events.
	ch := NewChecker([]int{0, 1})
	if ch.Observe(0, vclock.VC{1, 0}) {
		t.Fatal("half the conjunction cannot trigger")
	}
	if !ch.Observe(1, vclock.VC{0, 1}) {
		t.Fatal("concurrent true events must trigger")
	}
	w := ch.Witness()
	if len(w) != 2 {
		t.Fatalf("witness = %v", w)
	}
}

func TestCheckerEliminatesStaleHead(t *testing.T) {
	// p0's first true event is strictly before p1's event (p1 has seen
	// 2 events of p0); p0's second true event is concurrent.
	ch := NewChecker([]int{0, 1})
	ch.Observe(0, vclock.VC{1, 0})
	if ch.Observe(1, vclock.VC{2, 3}) {
		t.Fatal("should not trigger: head of p0 is superseded")
	}
	if !ch.Observe(0, vclock.VC{3, 0}) {
		t.Fatal("fresh concurrent true event must complete the conjunction")
	}
}

func TestWitnessIsCopied(t *testing.T) {
	ch := NewChecker([]int{0, 1})
	ch.Observe(0, vclock.VC{1, 0})
	ch.Observe(1, vclock.VC{0, 1})
	w := ch.Witness()
	w[0][0] = 99
	w2 := ch.Witness()
	if w2[0][0] == 99 {
		t.Fatal("Witness must return copies")
	}
}
