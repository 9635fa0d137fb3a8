package maxflow

import "github.com/distributed-predicates/gpd/internal/obs"

// Network is the persistent residual network behind a streaming sum
// range: the closure pair of MaxClosurePairTraced over a DAG that gains
// nodes at one end and loses a downward-closed prefix at the other, kept
// warm between solves instead of being rebuilt. Both problems share one
// adjacency: a node of weight w carries a source and a sink arc, of
// capacities max(w,0) and max(-w,0) when maximising and swapped when
// minimising, and requirement arcs are unbounded in both, so the
// problems differ only in a capacity array; each is solved on demand.
// The warm flow is exact (DESIGN.md, "Why the warm flush is exact"):
// new nodes and arcs carry no flow, so the old flow stays feasible; the
// best closure weight is the residual capacity left on the source arcs,
// an upper bound until solved; and what a prune strands at retained
// nodes can be walked back to the source inside the retained window,
// from any feasible flow. Not safe for concurrent use.
type Network struct {
	g      Graph    // node 0: source, 1: sink, then the nodes; cap holds the maximisation's residual capacities
	alt    []int64  // the minimisation's, arc for arc
	value  [2]int64 // residual source capacity per problem: the best closure weight once solved, above it before
	weight []int64  // graph node -> weight
	excess []int64  // Prune scratch: graph node -> flow still to walk back
	remap  []int    // Prune scratch: graph node -> compacted graph node, -1 if dropped
}

const source, sink, firstNode = 0, 1, 2

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{g: *NewGraph(firstNode)} }

// Len returns the number of nodes.
func (nw *Network) Len() int { return nw.g.n - firstNode }

// AddNode adds a node of the given weight (at most MaxWeight in
// magnitude) and returns its index: dense, in insertion order.
func (nw *Network) AddNode(w int64) int {
	g := &nw.g
	v := g.n
	if v == len(g.head) {
		g.head = grown(g.head, v+1)
		nw.weight = grown(nw.weight, len(g.head))
	}
	g.head[v], nw.weight[v] = -1, w
	g.n++
	if w != 0 {
		pos, neg := max(w, 0), max(-w, 0)
		nw.addEdge(source, v, pos, neg)
		nw.addEdge(v, sink, neg, pos)
		nw.value[0] += pos
		nw.value[1] += neg
	}
	return v - firstNode
}

// Require records that node v requires node u: every closure containing
// v contains u. u must be an older node than v.
func (nw *Network) Require(v, u int) {
	nw.addEdge(v+firstNode, u+firstNode, Infinity, Infinity)
}

func (nw *Network) addEdge(u, v int, c, altc int64) {
	a := nw.g.arcs
	nw.g.AddEdge(u, v, c)
	if len(nw.alt) < len(nw.g.cap) {
		nw.alt = grown(nw.alt, len(nw.g.cap))
	}
	nw.alt[a], nw.alt[a^1] = altc, 0
}

// swap exchanges the problems: Solve and Prune handle the minimisation
// between two swaps.
func (nw *Network) swap() { nw.g.cap, nw.alt = nw.alt, nw.g.cap }

// Bound returns problem k's residual source capacity (0: the weights,
// 1: their negation): for any feasible flow at least the problem's best
// closure weight, and equal to it once Solve has topped the flow up.
func (nw *Network) Bound(k int) int64 { return nw.value[k] }

// Solve tops problem k's flow up to maximum and returns its best
// closure weight (at least zero: the empty closure). Work counters
// accumulate into the trace (nil: free).
func (nw *Network) Solve(k int, tr *obs.Trace) int64 {
	if k == 1 {
		nw.swap()
	}
	nw.value[k] -= nw.g.MaxFlow(source, sink)
	if k == 1 {
		nw.swap()
	}
	if tr != nil {
		tr.Add("maxflow.augmenting_paths", nw.g.augPaths)
		tr.Add("maxflow.bfs_phases", nw.g.phases)
		tr.Add("maxflow.closures", 1)
		tr.Add("maxflow.graph_nodes", int64(nw.Len()))
		tr.Add("maxflow.graph_arcs", int64(nw.g.arcs))
	}
	nw.g.augPaths, nw.g.phases = 0, 0
	return nw.value[k]
}

// Prune removes the nodes marked in drop, which must be closed under
// requirement, renumbers the rest densely in their old order and
// returns the total weight removed.
func (nw *Network) Prune(drop []bool) (weight int64) {
	g := &nw.g
	if len(nw.remap) < g.n {
		nw.remap, nw.excess = make([]int, len(g.head)), make([]int64, len(g.head))
	}
	remap := nw.remap[:g.n]
	remap[source], remap[sink] = source, sink
	kept := firstNode
	for v := firstNode; v < g.n; v++ {
		if drop[v-firstNode] {
			remap[v] = -1
			weight += nw.weight[v]
			continue
		}
		remap[v], nw.weight[kept] = kept, nw.weight[v]
		kept++
	}
	for k := range nw.value {
		nw.value[k] += nw.unwind(remap)
		nw.swap()
	}
	// Compact the arcs in place; re-linking the kept pairs in their old
	// order rebuilds every adjacency list in its old order.
	for v := 0; v < kept; v++ {
		g.head[v] = -1
	}
	arcs := g.arcs
	g.n, g.arcs = kept, 0
	for a := 0; a < arcs; a += 2 {
		u, v := remap[g.to[a^1]], remap[g.to[a]]
		if u < 0 || v < 0 {
			continue
		}
		c, rc, b := g.cap[a], g.cap[a^1], g.arcs
		nw.alt[b], nw.alt[b^1] = nw.alt[a], nw.alt[a^1]
		g.addArc(u, v, c)
		g.addArc(v, u, rc)
	}
	return weight
}

// unwind takes the current problem's flow off every arc the prune is
// about to remove and walks what that strands at retained nodes back to
// the source. It returns the change of the residual source capacity:
// flow handed back, less what leaves with the dropped nodes' source arcs.
func (nw *Network) unwind(remap []int) (delta int64) {
	g := &nw.g
	excess := nw.excess[:g.n]
	clear(excess)
	for a := 0; a < g.arcs; a += 2 {
		switch u, v := g.to[a^1], g.to[a]; {
		case remap[v] >= 0: // the arc stays, or leaves with its tail
		case u == source:
			delta -= g.cap[a]
		case remap[u] >= 0:
			excess[u] += g.cap[a^1]
		}
	}
	// A node's inflow arrives over the reversals in its own list, from
	// the source or from younger — higher-numbered — nodes, so one
	// ascending pass meets every node after all that can pass it flow.
	for v := firstNode; v < g.n; v++ {
		e := excess[v]
		for a := g.head[v]; e > 0 && a != -1; a = g.next[a] {
			x := g.to[a]
			if a&1 == 0 || g.cap[a] == 0 || remap[x] < 0 {
				continue
			}
			d := min(e, g.cap[a])
			g.cap[a] -= d
			g.cap[a^1] += d
			e -= d
			if x == source {
				delta += d
			} else {
				excess[x] += d
			}
		}
	}
	return delta
}
