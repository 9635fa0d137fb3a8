package conjunctive

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/vclock"
)

// TestObserveBatchMatchesObserve feeds the same random true-event streams
// through per-event Observe and through batched ObserveBatch and checks
// that detection and witness agree.
func TestObserveBatchMatchesObserve(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		// Independent processes with random interleaved ticks: generate
		// per-process sequences of timestamps (merging occasionally).
		clocks := make([]*vclock.Clock, n)
		for p := range clocks {
			clocks[p] = vclock.NewClock(p, n)
		}
		type obs struct {
			proc int
			vc   vclock.VC
		}
		var trace []obs
		for i := 0; i < 30; i++ {
			p := rng.Intn(n)
			var vc vclock.VC
			if rng.Float64() < 0.3 {
				q := rng.Intn(n)
				vc = clocks[p].Receive(clocks[q].Now())
			} else {
				vc = clocks[p].Event()
			}
			if rng.Float64() < 0.5 {
				trace = append(trace, obs{p, vc})
			}
		}
		one := NewChecker([]int{0, 1, 2})
		for _, o := range trace {
			one.Observe(o.proc, o.vc)
		}
		batched := NewChecker([]int{0, 1, 2})
		// Group the trace into random contiguous per-process batches.
		i := 0
		for i < len(trace) {
			p := trace[i].proc
			var vcs []vclock.VC
			j := i
			for j < len(trace) && trace[j].proc == p && len(vcs) < 1+rng.Intn(4) {
				vcs = append(vcs, trace[j].vc)
				j++
			}
			batched.ObserveBatch(p, vcs)
			i = j
		}
		if one.Found() != batched.Found() {
			t.Fatalf("seed %d: Observe found=%v, ObserveBatch found=%v", seed, one.Found(), batched.Found())
		}
		if one.Found() {
			w1, w2 := one.Witness(), batched.Witness()
			for i := range w1 {
				if w1[i].Compare(w2[i]) != vclock.Equal {
					t.Fatalf("seed %d: witness mismatch at slot %d: %v vs %v", seed, i, w1[i], w2[i])
				}
			}
		}
		if !batched.Found() && batched.Pending() != one.Pending() {
			t.Fatalf("seed %d: pending mismatch: %d vs %d", seed, batched.Pending(), one.Pending())
		}
		if got := batched.Involved(); len(got) != 3 || got[0] != 0 {
			t.Fatalf("Involved = %v", got)
		}
	}
}
