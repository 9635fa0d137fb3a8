package relsum

import (
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
//     pre-prune prefix and were covered by the flush the prune performs;
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
// its arcs, Flush tops the two flows up from where the last flush left
// them, Prune hands back the flow the dropped prefix carried — no flush
// rebuilds anything. Not safe for concurrent use.
type RangeTracker struct {
	baseline int64 // S at the pruned cut P
	min, max int64 // running extrema over every cut covered so far
	lo, hi   int64 // extrema over the window of the last flush that had work

	net   *maxflow.Network // retained window: node = slot, weight = per-event change of S
	slots map[int64]int    // external event id -> slot
	ids   []int64          // slot -> external event id (arena, first net.Len() in use)
	drop  []bool           // Prune scratch: slot -> pruned by the current Prune

	dirty bool       // events observed since the last Flush
	tr    *obs.Trace // optional work accounting (nil: free)
}

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
		lo:       baseline,
		hi:       baseline,
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
	t.dirty = true
}

// grow doubles the per-slot arenas.
//
//lint:coldpath
func (t *RangeTracker) grow() {
	n := max(64, 2*len(t.ids))
	t.ids, t.drop = append(t.ids, make([]int64, n-len(t.ids))...), make([]bool, n)
}

// Flush brings the two closures up to date with the events observed
// since the last call and folds the window's extrema into the running
// min/max. Free when nothing was observed.
func (t *RangeTracker) Flush() (min, max int64) {
	if !t.dirty {
		return t.min, t.max
	}
	t.dirty = false
	best, worst := t.net.Solve(t.tr)
	t.hi, t.lo = t.baseline+best, t.baseline-worst
	if t.hi > t.max {
		t.max = t.hi
	}
	if t.lo < t.min {
		t.min = t.lo
	}
	return t.min, t.max
}

// WindowRange returns the extrema over the cuts of the window as of the
// last flush that had work alone — baseline plus an ideal of the then
// retained events — before they were folded into the running Range. A
// consumer that joins the stream late folds these into its own running
// extrema (folding the same pair twice is harmless).
func (t *RangeTracker) WindowRange() (lo, hi int64) { return t.lo, t.hi }

// Prune folds the given events into the baseline and drops them from the
// window. The set must be downward closed within the window, and the
// caller must guarantee that every event yet to be observed causally
// succeeds all of them (the vector-clock frontier argument above). Prune
// flushes first so no cut goes uncovered. Unknown ids are ignored.
func (t *RangeTracker) Prune(ids []int64) {
	t.Flush()
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

// Range returns the running extrema as of the last Flush.
func (t *RangeTracker) Range() (min, max int64) { return t.min, t.max }

// Window returns the number of retained (unpruned) events.
func (t *RangeTracker) Window() int { return t.net.Len() }
