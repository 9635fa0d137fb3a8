// Package linear implements detection of linear global predicates in the
// sense of Chase & Garg ("Detection of global predicates: techniques and
// their limitations", Distributed Computing 1995) — one of the tractable
// classes in the paper's Figure 1 landscape.
//
// A predicate B is linear iff its satisfying cuts are closed under
// intersection (lattice meet); equivalently, for every consistent cut not
// satisfying B some process is "forbidden": no cut above the current one
// can satisfy B without that process advancing. Linearity yields both a
// detection algorithm and a canonical witness: the unique LEAST consistent
// cut satisfying B, found by repeatedly advancing a forbidden process to
// the least consistent cut containing its next event.
//
// Conjunctive predicates are the canonical linear predicates (a process
// whose local predicate is false at the frontier is forbidden); the
// Conjunctive helper adapts them to the Oracle interface.
package linear

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// NoProc is returned by Forbidden when the predicate already holds.
const NoProc computation.ProcID = -1

// Oracle evaluates a linear predicate and names forbidden processes.
type Oracle interface {
	// Holds evaluates the predicate at a consistent cut.
	Holds(c *computation.Computation, k computation.Cut) bool
	// Forbidden returns a process that must advance beyond its current
	// frontier in any satisfying cut above k. It is called only when
	// Holds(k) is false and must return a valid process; returning a
	// non-forbidden process breaks the least-cut guarantee (but the
	// algorithm still only reports cuts that satisfy the predicate).
	Forbidden(c *computation.Computation, k computation.Cut) computation.ProcID
}

// FindLeast returns the least consistent cut at or above from that
// satisfies the oracle's predicate, or ok=false if no such cut exists;
// from the initial cut this is the least satisfying cut overall, and
// computation slicing calls it from arbitrary cuts to build a slice's
// join-irreducibles. The running time is at most one advancement per
// event plus one oracle call each.
func FindLeast(c *computation.Computation, o Oracle, from computation.Cut) (computation.Cut, bool) {
	k := from.Clone()
	for !o.Holds(c, k) {
		p := o.Forbidden(c, k)
		if p == NoProc {
			return nil, false
		}
		if int(p) < 0 || int(p) >= c.NumProcs() {
			panic(fmt.Sprintf("linear: oracle returned invalid process %d", p))
		}
		next := k[int(p)] + 1
		if next >= c.Len(p) {
			return nil, false // p cannot advance: no satisfying cut exists
		}
		// Advance to the least consistent cut containing p's next
		// event: join the current cut with that event's causal ideal.
		e := c.EventAt(p, next)
		row := c.Clock(e.ID)
		for q := range k {
			if idx := int(row[q]) - 1; idx > k[q] {
				k[q] = idx
			}
		}
		if e.Index > k[int(p)] {
			k[int(p)] = e.Index
		}
	}
	return k, true
}

// conjunctiveOracle adapts per-process local predicates. procs holds the
// involved processes in sorted order: Forbidden picks the first failing
// process, and which one it names steers the advancement sequence (and
// the per-run work counters), so the scan order must be deterministic.
type conjunctiveOracle struct {
	locals map[computation.ProcID]func(computation.Event) bool
	procs  []computation.ProcID
}

// Conjunctive wraps a conjunction of local predicates as a linear oracle:
// any process whose local predicate is false at the cut's frontier is
// forbidden (its frontier state can never participate in a satisfying
// cut without advancing).
func Conjunctive(locals map[computation.ProcID]func(computation.Event) bool) Oracle {
	procs := make([]computation.ProcID, 0, len(locals))
	for p := range locals {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return &conjunctiveOracle{locals: locals, procs: procs}
}

func (o *conjunctiveOracle) Holds(c *computation.Computation, k computation.Cut) bool {
	for _, p := range o.procs {
		if !o.locals[p](c.EventAt(p, k[int(p)])) {
			return false
		}
	}
	return true
}

func (o *conjunctiveOracle) Forbidden(c *computation.Computation, k computation.Cut) computation.ProcID {
	for _, p := range o.procs {
		if !o.locals[p](c.EventAt(p, k[int(p)])) {
			return p
		}
	}
	return NoProc
}
