// Package lattice explores the lattice of consistent cuts (global states) of
// a distributed computation. One level-synchronous breadth-first search
// (Cooper–Marzullo) serves every entry point: enumeration (Explore,
// Count, SumRange), the exhaustive Possibly/Definitely detectors, region
// reachability (PathExists) and level sets (LevelCutsTraced). The search
// expands each level on a bounded worker pool and merges in frontier
// order, so verdicts, frontiers and work counters do not depend on the
// worker count.
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
	s := newSweep(c, 1, nil, nil)
	for level := []computation.Cut{c.InitialCut()}; len(level) > 0; level, _ = s.next(level) {
		for _, k := range level {
			if !visit(k) {
				return
			}
		}
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
	var witness computation.Cut
	Explore(c, func(k computation.Cut) bool {
		if pred(c, k) {
			witness = k.Clone()
		}
		return witness == nil
	})
	return witness != nil, witness
}

// Definitely reports whether every run of the computation passes through a
// cut satisfying the predicate (the strong modality): a run avoids the
// predicate iff the lattice has a path from the initial to the final cut
// on which it never holds. This is the level-synchronous sweep of Cooper
// and Marzullo — the set of cuts at each level reachable while avoiding
// the predicate — run on one worker.
func Definitely(c *computation.Computation, pred Predicate) bool {
	avoids := func(cc *computation.Computation, k computation.Cut) bool { return !pred(cc, k) }
	return !PathExists(c, c.InitialCut(), c.FinalCut(), avoids, 1, nil)
}

// PathExists reports whether the lattice contains a path of consistent
// cuts from one cut to another (from must be <= to component-wise) such
// that every cut on the path, including the endpoints, satisfies
// allowed. A nil allowed admits every cut. This is the reachability
// primitive behind Theorem 4 of the paper, swept level by level on a
// bounded worker pool; the verdict and the count of region cuts
// explored (every frontier cut expanded, up to the parent of the first
// path's end) accumulated into the trace are the same for every worker
// count.
func PathExists(c *computation.Computation, from, to computation.Cut, allowed Predicate, workers int, tr *obs.Trace) bool {
	var cuts int64
	defer func() {
		tr.Add("lattice.region_cuts_explored", cuts)
	}()
	if !from.Leq(to) || allowed != nil && (!allowed(c, from) || !allowed(c, to)) {
		return false
	}
	if from.Equal(to) {
		return true
	}
	admit := func(k computation.Cut) bool { return k.Leq(to) && (allowed == nil || allowed(c, k)) }
	s := newSweep(c, workers, admit, to.Equal)
	for level := []computation.Cut{from}; len(level) > 0; {
		next, parent := s.next(level)
		if parent >= 0 {
			cuts += int64(parent + 1)
			return true
		}
		cuts += int64(len(level))
		level = next
	}
	return false
}

// LevelCutsTraced returns every consistent cut at the given level
// (number of non-initial events executed), in breadth-first frontier
// order. The result is empty when the level exceeds the computation's
// event count. This is the level-set primitive behind the equilevel
// detectors (Garg & Streit, "Parallel Algorithms for Equilevel
// Predicates", 2023): every run passes through exactly one cut of each
// level, so both modalities of an equilevel predicate reduce to one
// antichain scan. Each frontier is expanded on a bounded worker pool and
// the number of cuts explored (all levels up to and including the target)
// is accumulated into the trace; the frontier order and counters are
// identical for every worker count.
func LevelCutsTraced(c *computation.Computation, level, workers int, tr *obs.Trace) []computation.Cut {
	var cuts int64
	defer func() {
		tr.Add("lattice.level_cuts_explored", cuts)
	}()
	if level < 0 {
		return nil
	}
	s := newSweep(c, workers, nil, nil)
	cur := []computation.Cut{c.InitialCut()}
	for d := 0; d < level && len(cur) > 0; d++ {
		cuts += int64(len(cur))
		cur, _ = s.next(cur)
	}
	cuts += int64(len(cur))
	return cur
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
