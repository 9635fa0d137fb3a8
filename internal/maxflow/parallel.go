package maxflow

import (
	"sync"

	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
)

// MaxFlowPar is MaxFlow with each BFS phase (level-graph construction)
// spread over a bounded worker pool. BFS levels are shortest distances,
// so they do not depend on visit order within a level — the level
// graph, the blocking-flow search over it, and therefore the flow value
// and all counters are identical for every worker count. workers <= 1
// builds the level graphs sequentially.
func (g *Graph) MaxFlowPar(s, t, workers int) int64 {
	if len(g.level) < g.n {
		size := len(g.head)
		g.level, g.iter, g.queue = make([]int, size), make([]int, size), make([]int, size)
	}
	if s == t {
		return 0
	}
	var total int64
	level, iter := g.level[:g.n], g.iter[:g.n]
	for g.bfsPar(s, t, level, workers) {
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

// bfsPar builds the residual level graph level-synchronously: workers
// scan disjoint chunks of the current frontier for unlabelled residual
// neighbours (pure reads), and a sequential merge labels them in
// frontier order. Small frontiers run inline via par.Do's chunk floor.
// One worker is the sequential bfs.
func (g *Graph) bfsPar(s, t int, level []int, workers int) bool {
	if workers <= 1 {
		return g.bfs(s, t, level)
	}
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	frontier := []int{s}
	for d := 1; len(frontier) > 0; d++ {
		out := make([][]int, len(frontier))
		par.Do(workers, len(frontier), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for a := g.head[frontier[i]]; a != -1; a = g.next[a] {
					if g.cap[a] > 0 && level[g.to[a]] < 0 {
						out[i] = append(out[i], g.to[a])
					}
				}
			}
		})
		var next []int
		for _, cands := range out {
			for _, w := range cands {
				if level[w] < 0 {
					level[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level[t] >= 0
}

// MaxClosurePairTraced solves the two closure problems behind every sum
// range — the maximum-weight closure of weights and of their negation
// (whose value negated is the minimum) — splitting the worker budget
// across the two independent flow computations when workers > 1. The
// trace is shared: Trace is mutex-guarded and counter addition is
// commutative, and both closures always run to completion, so totals
// are deterministic. Returns the weights closure first, the negated one
// second, in the same order the sequential callers computed them.
func MaxClosurePairTraced(weights []int64, requires [][2]int, workers int, tr *obs.Trace) (best int64, bestMask []bool, negBest int64, negMask []bool) {
	neg := make([]int64, len(weights))
	for i, w := range weights {
		neg[i] = -w
	}
	if workers <= 1 {
		best, bestMask = maxClosure(weights, requires, 1, tr)
		negBest, negMask = maxClosure(neg, requires, 1, tr)
		return
	}
	half := workers / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		negBest, negMask = maxClosure(neg, requires, half, tr)
	}()
	best, bestMask = maxClosure(weights, requires, workers-half, tr)
	wg.Wait()
	return
}

// maxClosure solves the maximum-weight closure problem on a DAG: choose
// a set of nodes closed under prerequisites maximizing the sum of
// weights. requires lists "v requires u" pairs (u must be chosen
// whenever v is). The empty closure is allowed, so the returned value is
// never negative; the mask marks chosen nodes. The flow runs
// sequentially or with parallel BFS phases depending on workers; work
// counters accumulate into the trace (nil: free).
func maxClosure(weights []int64, requires [][2]int, workers int, tr *obs.Trace) (int64, []bool) {
	n := len(weights)
	// Standard reduction: source -> v with cap w(v) for positive
	// weights, v -> sink with cap -w(v) for negative weights, and an
	// infinite edge v -> u for every requirement (v requires u). The
	// min cut separates the chosen closure (source side) from the rest.
	g := NewGraph(n + 2)
	s, t := n, n+1
	arcs := 2 * len(requires)
	for _, w := range weights {
		if w != 0 {
			arcs += 2
		}
	}
	g.reserve(arcs)
	var totalPos int64
	for v, w := range weights {
		if w > 0 {
			g.AddEdge(s, v, w)
			totalPos += w
		} else if w < 0 {
			g.AddEdge(v, t, -w)
		}
	}
	for _, r := range requires {
		v, u := r[0], r[1]
		g.AddEdge(v, u, Infinity)
	}
	flow := g.MaxFlowPar(s, t, workers)
	mask := g.MinCutSide()[:n]
	if tr != nil {
		var size int64
		for _, in := range mask {
			if in {
				size++
			}
		}
		tr.Add("maxflow.augmenting_paths", g.augPaths)
		tr.Add("maxflow.bfs_phases", g.phases)
		tr.Add("maxflow.closures", 1)
		tr.Add("maxflow.closure_size", size)
		tr.Add("maxflow.graph_nodes", int64(n))
		tr.Add("maxflow.graph_arcs", int64(g.arcs))
	}
	return totalPos - flow, mask
}
