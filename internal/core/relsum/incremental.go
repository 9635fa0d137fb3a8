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
// growing computation prefix. Not safe for concurrent use.
type RangeTracker struct {
	baseline int64 // S at the pruned cut P
	min, max int64 // running extrema over every cut covered so far
	lo, hi   int64 // extrema over the window of the last closure recomputation

	// Retained window, dense slots.
	slots   map[int64]int // external event id -> slot
	ids     []int64       // slot -> external event id
	weights []int64       // slot -> per-event change of S
	reqs    [][]int       // slot -> required slots (direct predecessors)

	dirty   bool       // events observed since the last Flush
	flushes int        // closure recomputations, for stats
	tr      *obs.Trace // optional work accounting (nil: free)

	// Scratch reused across Flush and Prune calls.
	pairs [][2]int // closure constraints (v requires u)
	neg   []int64  // negated weights
	drop  []bool   // slot -> pruned by the current Prune
	remap []int    // old slot -> new slot (-1: dropped)
}

// SetTrace routes the tracker's closure work counters (augmenting paths,
// closure sizes) into the given trace. A nil trace disables accounting.
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
		slots:    make(map[int64]int),
	}
}

// Observe adds one event to the window. id must be unique for the lifetime
// of the tracker; weight is the change of S caused by the event; requires
// lists the ids of the event's direct causal predecessors. Predecessors
// that were already pruned are ignored (they are below every cut the
// tracker still forms); predecessors never observed are a caller bug and
// make the closure constraints incomplete.
func (t *RangeTracker) Observe(id int64, weight int64, requires []int64) {
	if _, ok := t.slots[id]; ok {
		return // duplicate delivery: idempotent
	}
	slot := len(t.weights)
	t.slots[id] = slot
	//lint:ignore hotalloc the retained window grows by design until the caller prunes it; the backing arrays are reused across prunes
	t.ids = append(t.ids, id)
	//lint:ignore hotalloc as above: window growth, backing array reused across prunes
	t.weights = append(t.weights, weight)
	rs := make([]int, 0, len(requires))
	for _, r := range requires {
		if s, ok := t.slots[r]; ok {
			rs = append(rs, s)
		}
	}
	//lint:ignore hotalloc as above: window growth, backing array reused across prunes
	t.reqs = append(t.reqs, rs)
	t.dirty = true
}

// Flush recomputes the extrema over the current window (two max-weight
// closure computations) and folds them into the running min/max. Cheap
// when nothing changed since the last call.
func (t *RangeTracker) Flush() (min, max int64) {
	if !t.dirty {
		return t.min, t.max
	}
	t.dirty = false
	t.flushes++
	n := len(t.weights)
	if n == 0 {
		return t.min, t.max
	}
	requires := t.pairs[:0]
	for v, rs := range t.reqs {
		for _, u := range rs {
			requires = append(requires, [2]int{v, u})
		}
	}
	t.pairs = requires
	best, _ := maxflow.MaxClosureTraced(t.weights, requires, t.tr)
	t.hi = t.baseline + best
	if t.hi > t.max {
		t.max = t.hi
	}
	neg := t.neg[:0]
	for _, w := range t.weights {
		neg = append(neg, -w)
	}
	t.neg = neg
	worst, _ := maxflow.MaxClosureTraced(neg, requires, t.tr)
	t.lo = t.baseline - worst
	if t.lo < t.min {
		t.min = t.lo
	}
	return t.min, t.max
}

// WindowRange returns the extrema over the cuts of the window as of the
// last closure recomputation alone — baseline plus an ideal of the then
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
	n := len(t.weights)
	if cap(t.drop) < n {
		t.drop = make([]bool, n)
		t.remap = make([]int, n)
	}
	drop, remap := t.drop[:n], t.remap[:n]
	clear(drop)
	dropped := 0
	for _, id := range ids {
		if s, ok := t.slots[id]; ok && !drop[s] {
			drop[s] = true
			dropped++
		}
	}
	if dropped == 0 {
		return
	}
	newIDs := t.ids[:0]
	newW := t.weights[:0]
	newReqs := t.reqs[:0] // compacts in place: a kept slot never moves up
	for s := range t.weights {
		if drop[s] {
			t.baseline += t.weights[s]
			delete(t.slots, t.ids[s])
			remap[s] = -1
			continue
		}
		remap[s] = len(newW)
		newIDs = append(newIDs, t.ids[s])
		newW = append(newW, t.weights[s])
	}
	for s, rs := range t.reqs {
		if drop[s] {
			continue
		}
		kept := rs[:0]
		for _, u := range rs {
			if remap[u] >= 0 {
				kept = append(kept, remap[u])
			}
		}
		newReqs = append(newReqs, kept)
	}
	clear(t.reqs[len(newReqs):n]) // release the dropped slots' requirement lists
	t.ids, t.weights, t.reqs = newIDs, newW, newReqs
	for s, id := range t.ids {
		t.slots[id] = s
	}
}

// Range returns the running extrema as of the last Flush.
func (t *RangeTracker) Range() (min, max int64) { return t.min, t.max }

// Baseline returns S at the pruned cut.
func (t *RangeTracker) Baseline() int64 { return t.baseline }

// Window returns the number of retained (unpruned) events.
func (t *RangeTracker) Window() int { return len(t.weights) }

// Flushes returns the number of closure recomputations performed.
func (t *RangeTracker) Flushes() int { return t.flushes }
