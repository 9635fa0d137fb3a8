package mux

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/distributed-predicates/gpd/internal/detect"
)

// FuzzDelivery feeds the vector clocks of a random message DAG over 2–5
// processes to a Delivery in a random arrival order with duplicates, and
// checks it against the definition of causal delivery: every event is
// delivered exactly once, each when its own component is the next of
// its process and every other component is already delivered, and
// nothing is left held once the last event has arrived.
func FuzzDelivery(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(8*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, procs, events uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(procs)%4
		trace := causalTrace(rng, n, 1+int(events)%96)
		arrivals := slices.Clone(trace)
		for _, e := range trace {
			if rng.Intn(4) == 0 {
				arrivals = append(arrivals, e) // a retried frame
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		delivered := make([]int64, n)
		var order []detect.Event
		d := NewDelivery(n, func(e detect.Event) {
			if e.VC[e.Proc] != delivered[e.Proc]+1 {
				t.Fatalf("seed %d: delivered %v with %d of process %d delivered", seed, e.VC, delivered[e.Proc], e.Proc)
			}
			for q, v := range e.VC {
				if q != e.Proc && v > delivered[q] {
					t.Fatalf("seed %d: delivered %v before event %d of process %d", seed, e.VC, v, q)
				}
			}
			delivered[e.Proc] = e.VC[e.Proc]
			order = append(order, e)
		})
		for _, e := range arrivals {
			if err := d.Step(e); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		// The causal checks above make each delivery a distinct (process,
		// index), so the count alone shows every event came out once.
		if len(order) != len(trace) || d.Delivered() != int64(len(trace)) || d.Holdback() != 0 {
			t.Fatalf("seed %d: %d of %d events delivered (Delivered %d), %d held",
				seed, len(order), len(trace), d.Delivered(), d.Holdback())
		}
	})
}

// causalTrace returns the events of a random message DAG over n
// processes: at each step one process takes an event, first receiving a
// pending message (merging its sender's clock) half the time, and half
// the time sends one.
func causalTrace(rng *rand.Rand, n, events int) []detect.Event {
	clocks := make([][]int64, n)
	for p := range clocks {
		clocks[p] = make([]int64, n)
	}
	var pending [][]int64
	trace := make([]detect.Event, 0, events)
	for len(trace) < events {
		p := rng.Intn(n)
		vc := clocks[p]
		if len(pending) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(pending))
			for q, v := range pending[k] {
				vc[q] = max(vc[q], v)
			}
			pending = slices.Delete(pending, k, k+1)
		}
		vc[p]++
		if rng.Intn(2) == 0 {
			pending = append(pending, slices.Clone(vc))
		}
		trace = append(trace, detect.Event{Proc: p, VC: slices.Clone(vc)})
	}
	return trace
}
