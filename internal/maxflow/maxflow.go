// Package maxflow provides Dinic's maximum-flow algorithm and, on top of
// it, the classic max-weight closure reduction. Closures (downward-closed
// sets of a DAG, i.e. order ideals) are exactly the consistent cuts of a
// computation, so this package is the engine behind the polynomial-time
// min/max computations over consistent cuts used by the relational-sum
// detectors (Chase & Garg's technique for relational predicates).
package maxflow

import "math"

// Graph is a flow network. Nodes are dense ints; add edges with AddEdge
// and call MaxFlow. The arrays are arenas of which a prefix is in use, so
// a long-lived graph (Network) stops allocating once they have reached
// their working size.
type Graph struct {
	n    int   // nodes in use: head[:n]
	arcs int   // arcs in use: next, to, cap [:arcs]
	head []int // head[v] = first arc index of v, -1 if none
	next []int // next arc in v's list
	to   []int
	cap  []int64

	level, iter, queue []int // MaxFlow scratch, kept across calls

	augPaths int64 // augmenting paths found by MaxFlow
	phases   int64 // BFS level graphs built by MaxFlow
}

// NewGraph returns an empty flow network with n nodes.
func NewGraph(n int) *Graph {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{n: n, head: head}
}

// grown returns s zero-extended to hold at least n elements, at least
// doubling so that repeated growth is amortised.
//
//lint:coldpath
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, max(n, 2*len(s))-len(s))...)
}

// reserve sizes the arc arenas for at least n arcs.
//
//lint:coldpath
func (g *Graph) reserve(n int) {
	g.to, g.next, g.cap = grown(g.to, n), grown(g.next, n), grown(g.cap, n)
}

// AddEdge adds a directed edge u->v with the given capacity (and its
// residual reverse edge with capacity 0). Capacities must be non-negative.
func (g *Graph) AddEdge(u, v int, capacity int64) {
	if g.arcs+2 > len(g.to) {
		g.reserve(g.arcs + 2)
	}
	g.addArc(u, v, capacity)
	g.addArc(v, u, 0)
}

func (g *Graph) addArc(u, v int, c int64) {
	a := g.arcs
	g.to[a], g.cap[a], g.next[a] = v, c, g.head[u]
	g.head[u] = a
	g.arcs++
}

// Infinity is a capacity treated as unbounded.
const Infinity = math.MaxInt64 / 4

// MaxWeight bounds the magnitude of a closure node's weight. Infinity
// is only unbounded while the finite capacities of a network add up to
// less: past that, cutting a requirement is cheaper than honouring it.
// Under MaxWeight that takes 2^21 nodes of the largest weight; callers
// refuse a larger weight instead of answering wrongly.
const MaxWeight = Infinity >> 21

// MaxFlow computes the maximum s-t flow with Dinic's algorithm. The graph
// is consumed: capacities become residual capacities. Called again after
// nodes, edges or capacity were added, it resumes from the flow already
// routed and returns the increase.
func (g *Graph) MaxFlow(s, t int) int64 { return g.MaxFlowPar(s, t, 1) }

// bfs labels the residual level graph from s and reports whether it
// reaches t. It stops once t is labelled: every node of a lower level
// has its label by then, and no other node is on a shortest path.
func (g *Graph) bfs(s, t int, level []int) bool {
	for i := range level {
		level[i] = -1
	}
	queue := g.queue
	queue[0], level[s] = s, 0
	for head, tail := 0, 1; head < tail && level[t] < 0; head++ {
		v := queue[head]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if w := g.to[a]; g.cap[a] > 0 && level[w] < 0 {
				level[w] = level[v] + 1
				queue[tail] = w
				tail++
			}
		}
	}
	return level[t] >= 0
}

func (g *Graph) dfs(v, t int, f int64, level, iter []int) int64 {
	if v == t {
		return f
	}
	for ; iter[v] != -1; iter[v] = g.next[iter[v]] {
		a := iter[v]
		w := g.to[a]
		if g.cap[a] > 0 && level[w] == level[v]+1 {
			m := f
			if g.cap[a] < m {
				m = g.cap[a]
			}
			d := g.dfs(w, t, m, level, iter)
			if d > 0 {
				g.cap[a] -= d
				g.cap[a^1] += d
				return d
			}
		}
	}
	return 0
}

// MinCutSide returns, after MaxFlow(s, t) has run, the set of nodes on the
// source side of a minimum cut as a boolean mask: the nodes its last
// level graph — the one that no longer reached t — labelled, which are
// those reachable from s in the residual graph.
func (g *Graph) MinCutSide() []bool {
	side := make([]bool, g.n)
	for v, l := range g.level[:g.n] {
		side[v] = l >= 0
	}
	return side
}
