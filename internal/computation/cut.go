package computation

import (
	"fmt"
	"strings"
)

// Cut is a global state of a computation, represented by its frontier: for
// each process, the local index of the last event included in the cut. Every
// cut includes at least the initial events, so all components are >= 0.
//
// Cuts are plain slices so callers can index them directly; use the methods
// on Computation to create and manipulate them safely.
type Cut []int

// Clone returns a copy of the cut.
func (k Cut) Clone() Cut {
	out := make(Cut, len(k))
	copy(out, k)
	return out
}

// Equal reports whether two cuts have identical frontiers.
func (k Cut) Equal(other Cut) bool {
	if len(k) != len(other) {
		return false
	}
	for i := range k {
		if k[i] != other[i] {
			return false
		}
	}
	return true
}

// Leq reports whether k is a subset of (or equal to) other, i.e. other is
// reachable from k by executing zero or more events.
func (k Cut) Leq(other Cut) bool {
	if len(k) != len(other) {
		return false
	}
	for i := range k {
		if k[i] > other[i] {
			return false
		}
	}
	return true
}

// Size returns the number of non-initial events contained in the cut.
func (k Cut) Size() int {
	total := 0
	for _, v := range k {
		total += v
	}
	return total
}

// String renders the frontier, e.g. "<0,2,1>".
func (k Cut) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range k {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('>')
	return b.String()
}

// Key returns a compact string key uniquely identifying the cut, suitable
// for use in maps during lattice traversals.
func (k Cut) Key() string {
	var b strings.Builder
	b.Grow(len(k) * 3)
	for i, v := range k {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmt.Sprintf("%x", v))
	}
	return b.String()
}

// InitialCut returns the cut containing exactly the initial events.
func (c *Computation) InitialCut() Cut {
	return make(Cut, len(c.procs))
}

// FinalCut returns the cut containing every event.
func (c *Computation) FinalCut() Cut {
	k := make(Cut, len(c.procs))
	for p := range c.procs {
		k[p] = len(c.procs[p]) - 1
	}
	return k
}

// CutThrough returns the minimal consistent cut passing through all of the
// given events: component p is the maximum over the supplied events e of
// clock(e)[p] - 1, floored at the event's own index for its process and at 0.
// If the events are pairwise consistent (at most one per process), the
// returned cut passes through each of them.
func (c *Computation) CutThrough(ids ...EventID) Cut {
	c.requireSealed()
	k := c.InitialCut()
	for _, id := range ids {
		e := c.events[id]
		if e.Index > k[int(e.Proc)] {
			k[int(e.Proc)] = e.Index
		}
		row := c.clock[id]
		for p := range k {
			if int(row[p])-1 > k[p] {
				k[p] = int(row[p]) - 1
			}
		}
	}
	return k
}

// CutConsistent reports whether the cut is consistent: closed under the
// partial order. Using vector clocks this is: for the frontier event e_p of
// every process p and every process q, clock(e_p)[q] <= frontier(q)+1.
//
//lint:ignore testonly witness-cut oracle in TestExploreVisitsConsistentCutsOnce, TestPossiblyEqWitness and the root agreesWithLattice helper
func (c *Computation) CutConsistent(k Cut) bool {
	c.requireSealed()
	for p := range c.procs {
		id := c.procs[p][k[p]]
		row := c.clock[id]
		for q := range c.procs {
			if int(row[q]) > k[q]+1 {
				return false
			}
		}
	}
	return true
}

// PassesThrough reports whether the cut passes through the event, i.e. the
// event is the last event of its process contained in the cut.
func (k Cut) PassesThrough(e Event) bool {
	return k[int(e.Proc)] == e.Index
}

// Contains reports whether the event is included in the cut.
func (k Cut) Contains(e Event) bool {
	return e.Index <= k[int(e.Proc)]
}

// Enabled returns the events executable at cut k: for each process with
// remaining events, the next event, provided all of its direct predecessors
// are already in the cut. For a consistent cut, executing an enabled event
// yields a consistent cut again.
func (c *Computation) Enabled(k Cut) []EventID {
	c.requireSealed()
	var out []EventID
	for p := range c.procs {
		if id, ok := c.enabledOn(k, ProcID(p)); ok {
			out = append(out, id)
		}
	}
	return out
}

func (c *Computation) enabledOn(k Cut, p ProcID) (EventID, bool) {
	row := c.procs[int(p)]
	next := k[int(p)] + 1
	if next >= len(row) {
		return NoEvent, false
	}
	id := row[next]
	// The event is enabled iff all events that precede it are in the cut:
	// clock(id)[q] <= k[q]+1 for all q (its own component equals next+1 =
	// k[p]+2? no: clock(id)[p] = next+1 = k[p]+2 would fail; its own
	// process component counts itself, so compare excluding self membership:
	// every strictly preceding event of q must be within k[q].
	rowc := c.clock[id]
	for q := range c.procs {
		limit := k[q] + 1
		if q == int(p) {
			limit = k[q] + 2 // the event itself
		}
		if int(rowc[q]) > limit {
			return NoEvent, false
		}
	}
	return id, true
}

// Execute returns the cut obtained from k by executing the next event of
// process p. It panics if there is no next event. The result is consistent
// only if that event was enabled.
func (c *Computation) Execute(k Cut, p ProcID) Cut {
	if k[int(p)]+1 >= len(c.procs[int(p)]) {
		panic(fmt.Sprintf("computation: no next event on process %d at cut %v", p, k))
	}
	out := k.Clone()
	out[int(p)]++
	return out
}

// Frontier returns the frontier events of the cut, one per process.
func (c *Computation) Frontier(k Cut) []EventID {
	out := make([]EventID, len(k))
	for p := range k {
		out[p] = c.procs[p][k[p]]
	}
	return out
}

// SumVar returns the sum over all processes of the named variable evaluated
// at the cut's frontier events.
func (c *Computation) SumVar(name string, k Cut) int64 {
	var s int64
	for p := range k {
		s += c.Var(name, c.procs[p][k[p]])
	}
	return s
}

// CountTrue returns the number of processes whose frontier event satisfies
// the local predicate.
func (c *Computation) CountTrue(k Cut, local func(Event) bool) int {
	n := 0
	for p := range k {
		if local(c.events[c.procs[p][k[p]]]) {
			n++
		}
	}
	return n
}
