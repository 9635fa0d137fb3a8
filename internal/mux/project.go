package mux

import "sort"

// projector maintains the projection of the computation onto one
// variable's events. Detectors routed by variable must not see raw
// vector clocks: a raw component counts ALL events of a process, so a
// detector that is only shown its variable's events would hold causal
// requirements on events it never observes, and the window trackers
// silently drop requirements on unknown events — the closure constraints
// would go incomplete and the verdict unsound. The projector rewrites
// every timestamp into the projection's own clock:
//
//	VC'[q] = number of v-events of process q with original local
//	         index ≤ VC[q]
//
// Under this clock the v-events form a self-contained sub-computation
// whose happened-before relation is the restriction of the original
// one, and whose consistent cuts are exactly the restrictions of the
// original consistent cuts — so Possibly over the projection agrees
// with Possibly over the full computation for any predicate that only
// reads the variable.
//
// Per process the projector keeps the ascending original local indices
// of the variable's retained events plus a count of pruned earlier
// ones; a component is one binary search. A projector created
// mid-stream counts from its creation cut: detectors registered later
// see clocks offset by a per-process constant, which preserves every
// comparison between events they observe.
type projector struct {
	idx  [][]int64 // per-process ascending original local indices of the var's events
	base []int64   // per-process count of pruned (earlier) events of the var
}

func newProjector(procs int) *projector {
	return &projector{idx: make([][]int64, procs), base: make([]int64, procs)}
}

// project records the event as its variable's next event on its process
// and returns the projected timestamp. Events of one variable must be
// projected in causal delivery order.
func (pj *projector) project(proc int, vc []int64) []int64 {
	pj.idx[proc] = append(pj.idx[proc], vc[proc])
	out := make([]int64, len(vc))
	for q, v := range vc {
		out[q] = pj.base[q] + countLE(pj.idx[q], v)
	}
	return out
}

// cut fills out with the projection's current cut: per process, how
// many of the variable's events have been projected since creation.
func (pj *projector) cut(out []int64) {
	for q, list := range pj.idx {
		out[q] = pj.base[q] + int64(len(list))
	}
}

// countLE returns how many entries of the ascending slice are ≤ v.
func countLE(idx []int64, v int64) int64 {
	return int64(sort.Search(len(idx), func(i int) bool { return idx[i] > v }))
}

// prune drops retained indices at or below the per-process floor mins,
// folding them into the base counts. mins must be a lower bound on the
// timestamp of every future event (the component-wise minimum of the
// last delivered clocks of all processes qualifies: clocks are
// monotone along every process line).
func (pj *projector) prune(mins []int64) {
	for q, list := range pj.idx {
		cut := countLE(list, mins[q])
		if cut > 0 {
			pj.base[q] += cut
			pj.idx[q] = append(pj.idx[q][:0], list[cut:]...)
		}
	}
}
