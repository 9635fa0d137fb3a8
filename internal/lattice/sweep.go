package lattice

import (
	"slices"
	"sync/atomic"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/par"
)

// sweep is the package's one breadth-first search of the cut lattice,
// one level per call of next. A cut's level is its number of non-initial
// events and a successor is one event up, so levels never meet and
// duplicates are removed per level. Workers (par.Do) expand contiguous
// chunks of a level into their own buffers: successors, admit, goal and
// dedup keys. One sequential merge walks the chunks in frontier order,
// so the next level and the goal's position do not depend on the worker
// count; one worker runs the single chunk inline. The buffers, the dedup
// map and the level slices are reused from level to level.
type sweep struct {
	c       *computation.Computation
	workers int
	admit   func(computation.Cut) bool // nil admits every successor
	goal    func(computation.Cut) bool // nil: no successor ends the search
	chunks  []chunk                    // one per par.Do chunk
	taken   atomic.Int32               // chunks claimed in the current level
	seen    map[string]bool
	spare   []computation.Cut // storage for the next level
}

// chunk is one worker's output for the frontier range starting at lo:
// its admitted successors in frontier order, or the index of the
// frontier cut whose successor goal accepted.
type chunk struct {
	lo, goal int
	succs    []succ
}

// succ is an admitted successor cut with its dedup key, computed by the
// worker so the merge does only map work.
type succ struct {
	cut computation.Cut
	key string
}

func newSweep(c *computation.Computation, workers int, admit, goal func(computation.Cut) bool) *sweep {
	return &sweep{c: c, workers: workers, admit: admit, goal: goal,
		chunks: make([]chunk, max(workers, 1)), seen: make(map[string]bool)}
}

// next expands one level. It returns the distinct admitted successors
// in frontier order and -1, or, when goal accepts an admitted
// successor, nil and the index of the first frontier cut that has one.
// The returned slice is valid until the call after next.
func (s *sweep) next(level []computation.Cut) ([]computation.Cut, int) {
	par.Do(s.workers, len(level), func(lo, hi int) {
		ch := &s.chunks[s.taken.Add(1)-1]
		// A cut has at most one successor per process: sizing the buffer
		// once spares append's repeated copies of a wide level.
		ch.lo, ch.goal, ch.succs = lo, -1, slices.Grow(ch.succs[:0], (hi-lo)*s.c.NumProcs())
		for i := lo; i < hi; i++ {
			for _, id := range s.c.Enabled(level[i]) {
				nk := s.c.Execute(level[i], s.c.Event(id).Proc)
				if s.admit != nil && !s.admit(nk) {
					continue
				}
				if s.goal != nil && s.goal(nk) {
					ch.goal = i
					return
				}
				ch.succs = append(ch.succs, succ{nk, nk.Key()})
			}
		}
	})
	chunks := s.chunks[:s.taken.Swap(0)]
	slices.SortFunc(chunks, func(a, b chunk) int { return a.lo - b.lo })
	clear(s.seen)
	next := s.spare[:0]
	for i := range chunks {
		ch := &chunks[i]
		if ch.goal >= 0 {
			return nil, ch.goal
		}
		for _, x := range ch.succs {
			if !s.seen[x.key] {
				s.seen[x.key] = true
				next = append(next, x.cut)
			}
		}
		clear(ch.succs) // drop duplicate cuts and keys for the collector
	}
	s.spare = level[:0]
	return next, -1
}
