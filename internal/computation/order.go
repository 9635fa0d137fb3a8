package computation

import "fmt"

// Seal validates the order relation and precomputes the data structures
// used by query methods: direct successor/predecessor lists, a topological
// order, and vector-clock timestamps. It returns ErrCyclic (wrapped) if the
// declared edges induce a cycle. Sealing an already sealed computation is a
// no-op.
func (c *Computation) Seal() error {
	if c.sealed {
		return nil
	}
	n := len(c.events)
	c.succs = make([][]EventID, n)
	c.preds = make([][]EventID, n)
	add := func(from, to EventID) {
		c.succs[from] = append(c.succs[from], to)
		c.preds[to] = append(c.preds[to], from)
	}
	for _, row := range c.procs {
		for i := 1; i < len(row); i++ {
			add(row[i-1], row[i])
		}
	}
	for _, m := range c.msgs {
		add(m.Send, m.Receive)
	}
	for _, e := range c.edges {
		add(e.From, e.To)
	}

	// Kahn's algorithm: a topological order exists iff the relation is
	// acyclic.
	indeg := make([]int, n)
	for to := range c.preds {
		indeg[to] = len(c.preds[to])
	}
	queue := make([]EventID, 0, n)
	for id := range indeg {
		if indeg[id] == 0 {
			queue = append(queue, EventID(id))
		}
	}
	topo := make([]EventID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		topo = append(topo, id)
		for _, s := range c.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != n {
		c.unseal()
		return fmt.Errorf("%w: %d of %d events reachable in topological order", ErrCyclic, len(topo), n)
	}
	c.topo = topo

	// Vector clocks by dynamic programming over the topological order:
	// clock[e] is the component-wise max of the clocks of e's direct
	// predecessors, with clock[e][proc(e)] = index(e)+1. This is exactly
	// the Fidge/Mattern timestamp generalized to extra order edges.
	np := len(c.procs)
	flat := make([]int32, n*np)
	c.clock = make([][]int32, n)
	for i := range c.clock {
		c.clock[i] = flat[i*np : (i+1)*np : (i+1)*np]
	}
	for _, id := range topo {
		e := c.events[id]
		row := c.clock[id]
		for _, p := range c.preds[id] {
			prow := c.clock[p]
			for q := range row {
				if prow[q] > row[q] {
					row[q] = prow[q]
				}
			}
		}
		row[int(e.Proc)] = int32(e.Index) + 1
	}
	c.sealed = true
	return nil
}

// MustSeal is Seal but panics on error; convenient in tests and generators
// that construct computations known to be acyclic.
func (c *Computation) MustSeal() *Computation {
	if err := c.Seal(); err != nil {
		panic(err)
	}
	return c
}

// Sealed reports whether the computation has been sealed since the last
// mutation.
func (c *Computation) Sealed() bool { return c.sealed }

func (c *Computation) requireSealed() {
	if !c.sealed {
		panic("computation: order query before Seal")
	}
}

// Clock returns the vector timestamp of event id: component p counts the
// events of process p that precede or equal the event. The returned slice
// must not be modified.
func (c *Computation) Clock(id EventID) []int32 {
	c.requireSealed()
	return c.clock[id]
}

// Precedes reports whether a happened-before b (irreflexive: a != b and a is
// below b in the partial order). O(1) via vector clocks.
func (c *Computation) Precedes(a, b EventID) bool {
	c.requireSealed()
	if a == b {
		return false
	}
	ea := c.events[a]
	// Initial events precede every non-initial event of the computation,
	// and initial events are mutually unordered.
	if ea.IsInitial() {
		return !c.events[b].IsInitial()
	}
	return int32(ea.Index)+1 <= c.clock[b][int(ea.Proc)]
}

// PrecedesEq reports a == b or a happened-before b.
func (c *Computation) PrecedesEq(a, b EventID) bool {
	return a == b || c.Precedes(a, b)
}

// Independent reports whether a and b are incomparable under the partial
// order (neither precedes the other and a != b).
func (c *Computation) Independent(a, b EventID) bool {
	return a != b && !c.Precedes(a, b) && !c.Precedes(b, a)
}

// ConsistentEvents reports whether some consistent cut passes through both
// a and b. Per the paper, a and b are inconsistent iff next(a) -> b or
// next(b) -> a (with a missing successor making the condition false);
// equivalently, each event must not be preceded by the other's successor.
func (c *Computation) ConsistentEvents(a, b EventID) bool {
	c.requireSealed()
	if a == b {
		return true
	}
	if na := c.Next(a); na != NoEvent && c.PrecedesEq(na, b) {
		return false
	}
	if nb := c.Next(b); nb != NoEvent && c.PrecedesEq(nb, a) {
		return false
	}
	return true
}

// Topo returns a topological order of all events. The returned slice is a
// copy.
func (c *Computation) Topo() []EventID {
	c.requireSealed()
	out := make([]EventID, len(c.topo))
	copy(out, c.topo)
	return out
}

// DirectPreds returns the direct predecessors of the event (local
// predecessor, message sends into it, extra edges). The slice is a copy.
func (c *Computation) DirectPreds(id EventID) []EventID {
	c.requireSealed()
	out := make([]EventID, len(c.preds[id]))
	copy(out, c.preds[id])
	return out
}

// PrecedesSlow answers happened-before by graph search instead of vector
// clocks. It does not require Seal-computed clocks beyond adjacency and is
// used to cross-check the vector-clock implementation in tests and
// micro-benchmarks.
//
//lint:ignore testonly graph-search oracle for Precedes in TestVectorClockMatchesGraphSearch and BenchmarkAblationPrecedence
func (c *Computation) PrecedesSlow(a, b EventID) bool {
	c.requireSealed()
	if a == b {
		return false
	}
	seen := make([]bool, len(c.events))
	stack := []EventID{a}
	seen[a] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.succs[id] {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
