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

// runSchedule runs one schedule and returns how many flushes solved a
// closure warm from the flow a prune unwound after a flush had skipped
// that closure: a feasible flow that need not be maximum.
func runSchedule(t *testing.T, s schedule) (warmAfterPartial int) {
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

	// The reach arm: half the schedules ask some flushes for only the
	// sides whose bound can reach drawn thresholds — the from-scratch
	// extreme, one off it, the residual bound itself, one past it, or
	// everything and nothing.
	arm := rng.Intn(2) == 0
	draw := func(extreme, bound, past, always, never int64) int64 {
		switch rng.Intn(7) {
		case 0:
			return always
		case 1:
			return never
		case 2:
			return extreme
		case 3:
			return extreme - 1
		case 4:
			return extreme + 1
		case 5:
			return bound
		}
		return bound + past
	}
	var pending Sides          // sides with events observed since the tracker last solved them
	exact := MinSide | MaxSide // sides every flush with work solved: their running extrema stay exact
	var partial, warm Sides    // pending sides a flush skipped; those of them a prune has since unwound
	check := func(when string) {
		t.Helper()
		lo, hi := o.fromScratch()
		wantMin, wantMax = min(wantMin, lo), max(wantMax, hi)
		r := Everything
		if arm && rng.Intn(2) == 0 {
			r = Reach{
				Lo: draw(lo, tr.baseline-tr.net.Bound(1), -1, Everything.Lo, Nothing.Lo),
				Hi: draw(hi, tr.baseline+tr.net.Bound(0), +1, Everything.Hi, Nothing.Hi),
			}
		}
		gotLo, gotHi, solved := tr.FlushReach(r)
		if solved&^pending != 0 {
			t.Fatalf("%s: solved sides %b with nothing observed since (pending %b)", when, solved, pending)
		}
		if solved&MinSide != 0 && gotLo != lo || solved&MaxSide != 0 && gotHi != hi {
			t.Fatalf("%s: solved %b: window range [%d,%d], from scratch [%d,%d] (reach %+v, window %d)", when, solved, gotLo, gotHi, lo, hi, r, len(o.retained))
		}
		if skipped := pending &^ solved; skipped != 0 {
			if skipped&MinSide != 0 && lo <= r.Lo || skipped&MaxSide != 0 && hi >= r.Hi {
				t.Fatalf("%s: skipped %b, but the window range [%d,%d] reaches %+v", when, skipped, lo, hi, r)
			}
			exact &^= skipped
			partial |= skipped
		}
		if solved&warm != 0 {
			warmAfterPartial++
		}
		partial &^= solved
		warm &^= solved
		pending &^= solved
		if exact&MinSide != 0 && tr.min != wantMin || exact&MaxSide != 0 && tr.max != wantMax {
			t.Fatalf("%s: range [%d,%d], want [%d,%d] (exact sides %b)", when, tr.min, tr.max, wantMin, wantMax, exact)
		}
		if tr.Window() != len(o.retained) {
			t.Fatalf("%s: window %d, want %d", when, tr.Window(), len(o.retained))
		}
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
		pending = MinSide | MaxSide
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
			warm |= partial
			if tr.Window() != len(o.retained) {
				t.Fatalf("after prune: window %d, want %d", tr.Window(), len(o.retained))
			}
		}
	}
	check("final flush")
	gotMin, gotMax := tr.Flush()
	if lo, hi, _, _ := q.rangeWitness(c, 1, nil); exact&MinSide != 0 && gotMin != lo || exact&MaxSide != 0 && gotMax != hi {
		t.Fatalf("complete stream: range [%d,%d], batch range [%d,%d] (exact sides %b)", gotMin, gotMax, lo, hi, exact)
	}
	return warmAfterPartial
}

// TestRangeTrackerMatchesFromScratch checks after every flush of random
// schedules — random computations, linearisations, flush points,
// frontier prunes, duplicate deliveries and reach thresholds — that
// every closure the warm tracker fed the reduced requirement lists
// solves equals the batch kernel run from scratch over the retained
// window with the unreduced ones, and that every closure it skips could
// not reach its threshold. Some schedules must solve a closure warm from
// the flow a prune left after a partly solved flush.
func TestRangeTrackerMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	warm := 0
	for i := 0; i < 400; i++ {
		warm += runSchedule(t, schedule{
			seed: rng.Int63(), procs: uint8(rng.Intn(256)), events: uint8(rng.Intn(256)), kind: uint8(i),
			flushPct: uint8(rng.Intn(101)), prunePct: uint8(rng.Intn(101)), dupPct: uint8(rng.Intn(40)),
		})
	}
	if warm == 0 {
		t.Fatal("no schedule solved a closure after a prune that followed a partly solved flush")
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
