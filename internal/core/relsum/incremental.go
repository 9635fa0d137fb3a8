package relsum

import (
	"math"

	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Incremental (online) tracking of the sum range. A RangeTracker consumes
// the events of a computation one at a time, in any order consistent with
// causality (every event arrives after all of its causal predecessors),
// and maintains the exact minimum and maximum of S over every consistent
// cut of the prefix observed so far. It is the streaming counterpart of
// SumRange, in the spirit of Chauhan et al., "A Distributed Abstraction
// Algorithm for Online Predicate Detection" (arXiv:1304.4326).
//
// Memory is bounded by pruning: once a downward-closed set of events P is
// known to lie below every event that can still arrive (the caller derives
// P from the vector-clock frontier: P is contained in the causal past of
// the latest delivered event of EVERY process), those events can be folded
// into a scalar baseline and dropped. Correctness of the fold:
//
//   - cuts that do not contain P contain no event delivered after the
//     prune (any such event f has P ⊆ past(f)), so they are cuts of the
//     pre-prune prefix and were covered by the flushes before it;
//   - cuts that do contain P are exactly P ∪ I for an ideal I of the
//     retained window, and their sum is baseline + weight(I), which is
//     what post-prune flushes compute.
//
// The running extrema therefore latch the true prefix extrema at every
// Flush, and after the final event they equal SumRange of the complete
// computation. For unit-step variables, successive flush intervals share
// the sum of the pruned cut, so every integer in [Min, Max] is attained
// by some consistent cut (the intermediate-value property of Theorem 4
// lifted to the streaming setting) — which is what makes the tracker a
// sound and complete online detector for Possibly(S = k).

// RangeTracker maintains min/max of S over the consistent cuts of a
// growing computation prefix. The retained window lives in one
// persistent residual network (maxflow.Network): Observe adds a node and
// its arcs, a flush tops the two flows up from where the last one left
// them, Prune hands back the flow the dropped prefix carried — no flush
// rebuilds anything. Not safe for concurrent use.
type RangeTracker struct {
	baseline int64 // S at the pruned cut P
	min, max int64 // running extrema over every cut covered so far

	net   *maxflow.Network // retained window: node = slot, weight = per-event change of S
	slots map[int64]int    // external event id -> slot
	ids   []int64          // slot -> external event id (arena, first net.Len() in use)
	drop  []bool           // Prune scratch: slot -> pruned by the current Prune

	dirty Sides      // closures with events observed since they were last solved
	tr    *obs.Trace // optional work accounting (nil: free)
}

// Sides is a set of the window's two closures.
type Sides uint8

const (
	MinSide Sides = 1 << iota // the window's lowest sum
	MaxSide                   // the window's highest sum
)

// Reach asks a flush for the min closure only if the window's lowest sum
// can be at most Lo, and for the max closure only if its highest can be
// at least Hi: the extrema that could still change a verdict.
type Reach struct{ Lo, Hi int64 }

// Every window reaches Everything, and none reaches Nothing.
var Everything, Nothing = Reach{math.MaxInt64, math.MinInt64}, Reach{math.MinInt64, math.MaxInt64}

// Union is the reach of two callers sharing a flush.
func (r Reach) Union(o Reach) Reach { return Reach{max(r.Lo, o.Lo), min(r.Hi, o.Hi)} }

// SetTrace routes the tracker's closure work counters (augmenting paths,
// BFS phases, network sizes) into the given trace. A nil trace disables
// accounting.
func (t *RangeTracker) SetTrace(tr *obs.Trace) { t.tr = tr }

// NewRangeTracker starts a tracker with the given baseline — the value of
// S at the initial cut (the sum of the per-process initial values).
func NewRangeTracker(baseline int64) *RangeTracker {
	return &RangeTracker{
		baseline: baseline,
		min:      baseline,
		max:      baseline,
		net:      maxflow.NewNetwork(),
		slots:    make(map[int64]int),
	}
}

// Observe adds one event to the window. id must be unique for the lifetime
// of the tracker; weight is the change of S caused by the event (Step
// bounds it); requires lists the ids of causal predecessors that, with
// the requirements already observed, imply every predecessor still in
// the window — the direct predecessors, or any subset dropping only what
// the rest implies. Predecessors that were already pruned are ignored
// (they are below every cut the tracker still forms); predecessors never
// observed are a caller bug and make the closure constraints incomplete.
func (t *RangeTracker) Observe(id int64, weight int64, requires []int64) {
	if _, ok := t.slots[id]; ok {
		return // duplicate delivery: idempotent
	}
	slot := t.net.AddNode(weight)
	if slot == len(t.ids) {
		t.grow()
	}
	t.slots[id], t.ids[slot] = slot, id
	for _, r := range requires {
		if u, ok := t.slots[r]; ok {
			t.net.Require(slot, u)
		}
	}
	t.dirty = MinSide | MaxSide
}

// grow doubles the per-slot arenas.
//
//lint:coldpath
func (t *RangeTracker) grow() {
	n := max(64, 2*len(t.ids))
	t.ids, t.drop = append(t.ids, make([]int64, n-len(t.ids))...), make([]bool, n)
}

// Flush solves both closures over the events observed since the last
// call and returns the running min/max, the exact prefix extrema.
//
//lint:ignore testonly the both-sides flush TestRangeTrackerAgreesWithSumRange and TestRangeTrackerWorkBound hold to SumRange and to the work bound
func (t *RangeTracker) Flush() (min, max int64) {
	t.FlushReach(Everything)
	return t.min, t.max
}

// FlushReach solves each closure that has events observed since it was
// last solved and whose bound — the network's residual source capacity,
// at least the closure's weight for any feasible flow — can reach r. It
// returns the extrema over the window's cuts for the sides it solved
// (the others' values mean nothing) and folds them into the running
// min/max. A skipped side stays dirty; its window could not reach r.
func (t *RangeTracker) FlushReach(r Reach) (lo, hi int64, solved Sides) {
	if t.dirty&MaxSide != 0 && t.baseline+t.net.Bound(0) >= r.Hi {
		hi = t.baseline + t.net.Solve(0, t.tr)
		t.max = max(t.max, hi)
		solved |= MaxSide
	}
	if t.dirty&MinSide != 0 && t.baseline-t.net.Bound(1) <= r.Lo {
		lo = t.baseline - t.net.Solve(1, t.tr)
		t.min = min(t.min, lo)
		solved |= MinSide
	}
	t.dirty &^= solved
	return lo, hi, solved
}

// Prune folds the given events into the baseline and drops them from the
// window. The set must be downward closed within the window, and the
// caller must guarantee that every event yet to be observed causally
// succeeds all of them (the vector-clock frontier argument above), and
// flushes first: only the flushes before it cover the cuts it removes.
// Unknown ids are ignored.
func (t *RangeTracker) Prune(ids []int64) {
	n := t.net.Len()
	drop := t.drop[:n]
	clear(drop)
	dropped := false
	for _, id := range ids {
		if s, ok := t.slots[id]; ok {
			drop[s], dropped = true, true
		}
	}
	if !dropped {
		return
	}
	t.baseline += t.net.Prune(drop)
	kept := 0
	for s, id := range t.ids[:n] {
		if drop[s] {
			delete(t.slots, id)
			continue
		}
		t.slots[id], t.ids[kept] = kept, id
		kept++
	}
}

// Window returns the number of retained (unpruned) events.
func (t *RangeTracker) Window() int { return t.net.Len() }
