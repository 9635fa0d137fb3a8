package maxflow

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// randomFlowInstance builds a reproducible random DAG-ish flow network
// builder: calling it twice yields two identical graphs, which matters
// because MaxFlow consumes capacities.
func randomFlowInstance(seed int64, n int) func() *Graph {
	type edge struct {
		u, v int
		c    int64
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []edge
	for i := 0; i < n*4; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v, int64(1 + rng.Intn(20))})
	}
	return func() *Graph {
		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(e.u, e.v, e.c)
		}
		return g
	}
}

func TestMaxFlowParMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		build := randomFlowInstance(seed, 30)
		ref := build()
		want := ref.MaxFlow(0, 29)
		wantAug, wantPhases := ref.augPaths, ref.phases
		for _, w := range []int{1, 2, 4, 8} {
			g := build()
			if got := g.MaxFlowPar(0, 29, w); got != want {
				t.Fatalf("seed %d w=%d: flow %d, want %d", seed, w, got, want)
			}
			aug, phases := g.augPaths, g.phases
			if aug != wantAug || phases != wantPhases {
				t.Fatalf("seed %d w=%d: stats (%d,%d), want (%d,%d)", seed, w, aug, phases, wantAug, wantPhases)
			}
			if !reflect.DeepEqual(g.MinCutSide(), ref.MinCutSide()) {
				t.Fatalf("seed %d w=%d: min-cut side differs", seed, w)
			}
		}
	}
}

// randomClosureInstance: weights with mixed signs plus a sprinkling of
// requirement edges.
func randomClosureInstance(seed int64, n int) ([]int64, [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64(rng.Intn(21) - 10)
	}
	var requires [][2]int
	for i := 0; i < n*2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			requires = append(requires, [2]int{u, v})
		}
	}
	return weights, requires
}

func TestMaxClosureParMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		weights, requires := randomClosureInstance(seed, 40)
		refTr := obs.NewTrace()
		wantVal, wantMask := maxClosure(weights, requires, 1, refTr)
		for _, w := range []int{1, 2, 4, 8} {
			tr := obs.NewTrace()
			val, mask := maxClosure(weights, requires, w, tr)
			if val != wantVal || !reflect.DeepEqual(mask, wantMask) {
				t.Fatalf("seed %d w=%d: closure (%d, %v), want (%d, %v)", seed, w, val, mask, wantVal, wantMask)
			}
			if !reflect.DeepEqual(tr.Report().Counters, refTr.Report().Counters) {
				t.Fatalf("seed %d w=%d: counters %v, want %v", seed, w, tr.Report().Counters, refTr.Report().Counters)
			}
		}
	}
}

func TestMaxClosurePairMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		weights, requires := randomClosureInstance(seed, 40)
		refTr := obs.NewTrace()
		wantBest, wantBestMask, wantNeg, wantNegMask := MaxClosurePairTraced(weights, requires, 1, refTr)
		for _, w := range []int{2, 4, 8} {
			tr := obs.NewTrace()
			best, bestMask, neg, negMask := MaxClosurePairTraced(weights, requires, w, tr)
			if best != wantBest || neg != wantNeg ||
				!reflect.DeepEqual(bestMask, wantBestMask) || !reflect.DeepEqual(negMask, wantNegMask) {
				t.Fatalf("seed %d w=%d: pair (%d,%d), want (%d,%d)", seed, w, best, neg, wantBest, wantNeg)
			}
			if !reflect.DeepEqual(tr.Report().Counters, refTr.Report().Counters) {
				t.Fatalf("seed %d w=%d: counters %v, want %v", seed, w, tr.Report().Counters, refTr.Report().Counters)
			}
		}
	}
}
