package relsum

import (
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/maxflow"
)

// schedule is one differential run of the warm tracker against the
// from-scratch batch kernel; every field is fuzzer-controlled.
type schedule struct {
	seed                int64
	procs, events, kind uint8 // kind: unit-step variable, arbitrary-step variable, channel-occupancy deltas
	flushPct, prunePct  uint8 // chance of a flush after a delivery, of a frontier prune at a flush
	dupPct              uint8 // chance of delivering an event a second time
}

// oracleWindow is the test's own model of what the tracker retains.
type oracleWindow struct {
	c        *computation.Computation
	w        Weight
	baseline int64
	retained []computation.EventID // delivery order
	last     [][]int32             // latest delivered clock per process
	pruned   map[computation.EventID]bool
}

// id packs (process, local index) the way detect's frontier does.
func (o *oracleWindow) id(p, index int) int64 { return int64(index*o.c.NumProcs() + p) }

// fromScratch solves the retained window with the batch kernel over the
// unreduced requirement list: one arc per process per event, to the
// latest event of that process in its causal past.
func (o *oracleWindow) fromScratch() (lo, hi int64) {
	slot := make(map[int64]int, len(o.retained))
	weights := make([]int64, len(o.retained))
	for i, id := range o.retained {
		e := o.c.Event(id)
		slot[o.id(int(e.Proc), e.Index)] = i
		weights[i] = o.w(e)
	}
	var requires [][2]int
	for i, id := range o.retained {
		e := o.c.Event(id)
		for q, v := range o.c.Clock(id) {
			index := int(v) - 1 // clocks count the initial event
			if q == int(e.Proc) {
				index--
			}
			if u, ok := slot[o.id(q, index)]; ok && index >= 1 {
				requires = append(requires, [2]int{i, u})
			}
		}
	}
	best, _, worst, _ := maxflow.MaxClosurePairTraced(weights, requires, 1, nil)
	return o.baseline - worst, o.baseline + best
}

// stable moves what fell below the common frontier out of the window
// and returns its tracker ids.
func (o *oracleWindow) stable() []int64 {
	floor := make([]int32, o.c.NumProcs())
	for q := range floor {
		floor[q] = 1 << 30
	}
	for _, clk := range o.last {
		if clk == nil {
			return nil
		}
		for q, v := range clk {
			floor[q] = min(floor[q], v)
		}
	}
	var ids []int64
	kept := o.retained[:0]
	for _, id := range o.retained {
		e := o.c.Event(id)
		if int32(e.Index)+1 > floor[int(e.Proc)] {
			kept = append(kept, id)
			continue
		}
		ids = append(ids, o.id(int(e.Proc), e.Index))
		o.baseline += o.w(e)
		o.pruned[id] = true
	}
	o.retained = kept
	return ids
}

func runSchedule(t *testing.T, s schedule) {
	rng := rand.New(rand.NewSource(s.seed))
	c := gen.Random(gen.Params{
		Seed: s.seed, Procs: 2 + int(s.procs%5), Events: 1 + int(s.events%12),
		MsgFrac: float64(s.seed&3) * 0.4,
	})
	var q quantity
	switch s.kind % 3 {
	case 0:
		gen.UnitStepVar(s.seed+1, c, "x")
		q = sumOf(c, "x")
	case 1:
		gen.ArbitraryStepVar(s.seed+1, c, "x", 9)
		q = sumOf(c, "x")
	default:
		q = weighted(0, InFlightWeight(c))
	}
	o := &oracleWindow{
		c: c, w: q.w, baseline: q.base,
		last: make([][]int32, c.NumProcs()), pruned: make(map[computation.EventID]bool),
	}
	tr := NewRangeTracker(q.base)
	wantMin, wantMax := q.base, q.base

	dirty := false // a flush with nothing observed since the last keeps the old window range
	check := func(when string) {
		t.Helper()
		gotMin, gotMax := tr.Flush()
		lo, hi := o.fromScratch()
		wantMin, wantMax = min(wantMin, lo), max(wantMax, hi)
		if gotLo, gotHi := tr.WindowRange(); dirty && (gotLo != lo || gotHi != hi) {
			t.Fatalf("%s: window range [%d,%d], from scratch [%d,%d] (window %d)", when, gotLo, gotHi, lo, hi, len(o.retained))
		}
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("%s: range [%d,%d], want [%d,%d]", when, gotMin, gotMax, wantMin, wantMax)
		}
		if tr.Window() != len(o.retained) {
			t.Fatalf("%s: window %d, want %d", when, tr.Window(), len(o.retained))
		}
		dirty = false
	}

	var reqs []int64
	deliver := func(id computation.EventID) {
		e := c.Event(id)
		p := int(e.Proc)
		// The reduced list detect's frontier hands the tracker.
		reqs = reqs[:0]
		if e.Index >= 2 {
			reqs = append(reqs, o.id(p, e.Index-1))
		}
		for r, v := range c.Clock(id) {
			if r != p && v >= 2 && (o.last[p] == nil || v > o.last[p][r]) {
				reqs = append(reqs, o.id(r, int(v)-1))
			}
		}
		tr.Observe(o.id(p, e.Index), q.w(e), reqs)
	}
	order := randomLinearization(c, rng)
	for i, id := range order {
		deliver(id)
		dirty = true
		o.retained = append(o.retained, id)
		o.last[int(c.Event(id).Proc)] = c.Clock(id)
		if rng.Intn(100) < int(s.dupPct%101) {
			// Redeliver something already seen, retained or pruned.
			dup := order[rng.Intn(i+1)]
			if !o.pruned[dup] {
				deliver(dup)
			}
		}
		if rng.Intn(100) >= int(s.flushPct%101) {
			continue
		}
		check("flush")
		if rng.Intn(100) < int(s.prunePct%101) {
			tr.Prune(o.stable())
			if tr.Window() != len(o.retained) {
				t.Fatalf("after prune: window %d, want %d", tr.Window(), len(o.retained))
			}
		}
	}
	check("final flush")
	gotMin, gotMax := tr.Flush()
	if lo, hi, _, _ := q.rangeWitness(c, 1, nil); gotMin != lo || gotMax != hi {
		t.Fatalf("complete stream: range [%d,%d], batch range [%d,%d]", gotMin, gotMax, lo, hi)
	}
}

// TestRangeTrackerMatchesFromScratch checks after every flush of random
// schedules — random computations, linearisations, flush points,
// frontier prunes and duplicate deliveries — that the warm tracker fed
// the reduced requirement lists equals the batch kernel run from scratch
// over the retained window with the unreduced ones.
func TestRangeTrackerMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		runSchedule(t, schedule{
			seed: rng.Int63(), procs: uint8(rng.Intn(256)), events: uint8(rng.Intn(256)), kind: uint8(i),
			flushPct: uint8(rng.Intn(101)), prunePct: uint8(rng.Intn(101)), dupPct: uint8(rng.Intn(40)),
		})
	}
}

func FuzzRangeTracker(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0), uint8(50), uint8(50), uint8(10))
	f.Add(int64(7), uint8(4), uint8(11), uint8(1), uint8(100), uint8(100), uint8(0))
	f.Add(int64(42), uint8(2), uint8(7), uint8(2), uint8(25), uint8(80), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, procs, events, kind, flushPct, prunePct, dupPct uint8) {
		runSchedule(t, schedule{seed, procs, events, kind, flushPct, prunePct, dupPct})
	})
}
