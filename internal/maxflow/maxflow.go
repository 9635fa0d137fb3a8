// Package maxflow provides Dinic's maximum-flow algorithm and, on top of
// it, the classic max-weight closure reduction. Closures (downward-closed
// sets of a DAG, i.e. order ideals) are exactly the consistent cuts of a
// computation, so this package is the engine behind the polynomial-time
// min/max computations over consistent cuts used by the relational-sum
// detectors (Chase & Garg's technique for relational predicates).
package maxflow

import (
	"math"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// Graph is a flow network under construction. Nodes are dense ints; add
// edges with AddEdge and call MaxFlow.
type Graph struct {
	n    int
	head []int // head[v] = first arc index of v, -1 if none
	next []int // next arc in v's list
	to   []int
	cap  []int64

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

// AddEdge adds a directed edge u->v with the given capacity (and its
// residual reverse edge with capacity 0). Capacities must be non-negative.
func (g *Graph) AddEdge(u, v int, capacity int64) {
	g.addArc(u, v, capacity)
	g.addArc(v, u, 0)
}

func (g *Graph) addArc(u, v int, c int64) {
	g.to = append(g.to, v)
	g.cap = append(g.cap, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = len(g.to) - 1
}

// Infinity is a capacity treated as unbounded.
const Infinity = math.MaxInt64 / 4

// MaxFlow computes the maximum s-t flow with Dinic's algorithm. The graph
// is consumed: capacities become residual capacities.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for g.bfs(s, t, level, &queue) {
		g.phases++
		copy(iter, g.head)
		for {
			f := g.dfs(s, t, Infinity, level, iter)
			if f == 0 {
				break
			}
			g.augPaths++
			total += f
		}
	}
	return total
}

func (g *Graph) bfs(s, t int, level []int, queue *[]int) bool {
	for i := range level {
		level[i] = -1
	}
	q := (*queue)[:0]
	q = append(q, s)
	level[s] = 0
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if g.cap[a] > 0 && level[g.to[a]] < 0 {
				level[g.to[a]] = level[v] + 1
				q = append(q, g.to[a])
			}
		}
	}
	*queue = q
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
// source side of a minimum cut (reachable from s in the residual graph) as
// a boolean mask.
func (g *Graph) MinCutSide(s int) []bool {
	side := make([]bool, g.n)
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := g.head[v]; a != -1; a = g.next[a] {
			if g.cap[a] > 0 && !side[g.to[a]] {
				side[g.to[a]] = true
				stack = append(stack, g.to[a])
			}
		}
	}
	return side
}

// MaxClosureTraced solves the maximum-weight closure problem on a DAG:
// choose a set S of nodes closed under prerequisites maximizing the sum
// of weights.
//
// Orientation: edges are given as "v requires u" pairs (u must be in S
// whenever v is), i.e. u is a prerequisite of v. The empty closure is
// allowed, so the returned value — the best closure weight — is never
// negative; the mask marks chosen nodes. Work counters (augmenting paths,
// BFS phases, graph and closure sizes) accumulate into the trace; a nil
// trace is free.
func MaxClosureTraced(weights []int64, requires [][2]int, tr *obs.Trace) (int64, []bool) {
	return maxClosure(weights, requires, 1, tr)
}
