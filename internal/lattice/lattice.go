// Package lattice explores the lattice of consistent cuts (global states) of
// a distributed computation. It provides the Cooper–Marzullo style
// breadth-first enumeration and the exhaustive Possibly/Definitely detectors
// built on it.
//
// These detectors are exponential in the number of processes — the
// combinatorial explosion the paper sets out to avoid — and serve two roles
// here: as correctness oracles for the polynomial algorithms, and as the
// baseline that the benchmark harness compares against.
package lattice

import (
	"math"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Predicate is a global predicate evaluated on a consistent cut.
type Predicate func(*computation.Computation, computation.Cut) bool

// Explore visits every consistent cut of the computation exactly once, in
// breadth-first (level) order starting from the initial cut. It stops early
// when visit returns false. The computation must be sealed.
func Explore(c *computation.Computation, visit func(computation.Cut) bool) {
	ExploreTraced(c, visit, nil)
}

// ExploreTraced is Explore, accumulating work counters into the trace:
// cuts enumerated, levels swept and the widest frontier (level width) —
// the quantities that make the exponential blowup of exhaustive detection
// visible. Counters are added once per run, so a nil trace costs nothing
// and a live one costs three map updates.
func ExploreTraced(c *computation.Computation, visit func(computation.Cut) bool, tr *obs.Trace) {
	var cuts, levels, width int64
	defer func() {
		tr.Add("lattice.cuts_explored", cuts)
		tr.Add("lattice.levels_swept", levels)
		tr.Max("lattice.max_frontier_width", width)
	}()
	level := []computation.Cut{c.InitialCut()}
	seen := map[string]bool{c.InitialCut().Key(): true}
	for len(level) > 0 {
		levels++
		if int64(len(level)) > width {
			width = int64(len(level))
		}
		var next []computation.Cut
		for _, k := range level {
			cuts++
			if !visit(k) {
				return
			}
			for _, id := range c.Enabled(k) {
				nk := c.Execute(k, c.Event(id).Proc)
				key := nk.Key()
				if !seen[key] {
					seen[key] = true
					next = append(next, nk)
				}
			}
		}
		level = next
	}
}

// Count returns the number of consistent cuts of the computation.
func Count(c *computation.Computation) int64 {
	var n int64
	Explore(c, func(computation.Cut) bool {
		n++
		return true
	})
	return n
}

// Possibly reports whether some consistent cut satisfies the predicate, and
// returns a witness cut when one exists. This is the exhaustive detector for
// Possibly(phi) under the weak modality.
func Possibly(c *computation.Computation, pred Predicate) (bool, computation.Cut) {
	return PossiblyTraced(c, pred, nil)
}

// PossiblyTraced is Possibly with work counters accumulated into the trace.
func PossiblyTraced(c *computation.Computation, pred Predicate, tr *obs.Trace) (bool, computation.Cut) {
	var witness computation.Cut
	found := false
	ExploreTraced(c, func(k computation.Cut) bool {
		if pred(c, k) {
			witness = k.Clone()
			found = true
			return false
		}
		return true
	}, tr)
	return found, witness
}

// Definitely reports whether every run of the computation passes through a
// cut satisfying the predicate (the strong modality). It performs the
// level-synchronous sweep of Cooper and Marzullo: maintain the set of cuts
// at each level reachable from the initial cut along paths avoiding the
// predicate; the predicate definitely holds iff that set becomes empty
// before the final cut is reached.
func Definitely(c *computation.Computation, pred Predicate) bool {
	return DefinitelyTraced(c, pred, nil)
}

// DefinitelyTraced is Definitely with work counters accumulated into the
// trace: cuts swept, levels and the widest surviving frontier.
func DefinitelyTraced(c *computation.Computation, pred Predicate, tr *obs.Trace) bool {
	var cuts, levels, width int64
	defer func() {
		tr.Add("lattice.cuts_explored", cuts)
		tr.Add("lattice.levels_swept", levels)
		tr.Max("lattice.max_frontier_width", width)
	}()
	start := c.InitialCut()
	cuts++
	if pred(c, start) {
		return true
	}
	level := []computation.Cut{start}
	final := c.FinalCut()
	for len(level) > 0 {
		levels++
		if int64(len(level)) > width {
			width = int64(len(level))
		}
		seen := make(map[string]bool)
		var next []computation.Cut
		for _, k := range level {
			if k.Equal(final) {
				// A complete run avoided the predicate.
				return false
			}
			for _, id := range c.Enabled(k) {
				nk := c.Execute(k, c.Event(id).Proc)
				cuts++
				if pred(c, nk) {
					continue // this path is intercepted
				}
				key := nk.Key()
				if !seen[key] {
					seen[key] = true
					next = append(next, nk)
				}
			}
		}
		level = next
	}
	return true
}

// PathExistsTraced reports whether the lattice contains a path of
// consistent cuts from one cut to another (from must be <= to
// component-wise) such that every cut on the path, including the
// endpoints, satisfies allowed. A nil allowed admits every cut. This is
// the reachability primitive behind Theorem 4 of the paper. The number of
// region cuts explored is accumulated into the trace.
func PathExistsTraced(c *computation.Computation, from, to computation.Cut, allowed Predicate, tr *obs.Trace) bool {
	var cuts int64
	defer func() {
		tr.Add("lattice.region_cuts_explored", cuts)
	}()
	if !from.Leq(to) {
		return false
	}
	if allowed != nil && (!allowed(c, from) || !allowed(c, to)) {
		return false
	}
	if from.Equal(to) {
		return true
	}
	seen := map[string]bool{from.Key(): true}
	queue := []computation.Cut{from}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		cuts++
		for _, id := range c.Enabled(k) {
			nk := c.Execute(k, c.Event(id).Proc)
			if !nk.Leq(to) {
				continue
			}
			if allowed != nil && !allowed(c, nk) {
				continue
			}
			if nk.Equal(to) {
				return true
			}
			key := nk.Key()
			if !seen[key] {
				seen[key] = true
				queue = append(queue, nk)
			}
		}
	}
	return false
}

// Runs enumerates the runs (maximal paths, i.e. linearizations) of the
// computation as sequences of event ids, invoking visit for each. It stops
// when visit returns false. The number of runs is exponential; use only on
// small computations (oracle checks and tests).
//
//lint:ignore testonly run-enumeration oracle for Definitely in TestDefinitelyMatchesRunEnumeration
func Runs(c *computation.Computation, visit func([]computation.EventID) bool) {
	run := make([]computation.EventID, 0, c.NumEvents())
	k := c.InitialCut()
	final := c.FinalCut()
	stopped := false
	var rec func()
	rec = func() {
		if stopped {
			return
		}
		if k.Equal(final) {
			if !visit(run) {
				stopped = true
			}
			return
		}
		for _, id := range c.Enabled(k) {
			p := c.Event(id).Proc
			k[int(p)]++
			run = append(run, id)
			rec()
			run = run[:len(run)-1]
			k[int(p)]--
			if stopped {
				return
			}
		}
	}
	rec()
}

// SumRange returns the minimum and maximum over all consistent cuts of the
// sum of the named variable at the cut's frontier, by exhaustive lattice
// exploration. It is the oracle counterpart of the max-flow computation in
// core/relsum.
//
//lint:ignore testonly exhaustive oracle for relsum.SumRange in TestSumRangeMatchesLattice and TestSumRangeArbitrarySteps
func SumRange(c *computation.Computation, name string) (min, max int64) {
	min, max = math.MaxInt64, math.MinInt64
	Explore(c, func(k computation.Cut) bool {
		s := c.SumVar(name, k)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
		return true
	})
	return min, max
}
