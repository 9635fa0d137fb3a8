package chains

import (
	"github.com/distributed-predicates/gpd/internal/matching"
	"github.com/distributed-predicates/gpd/internal/par"
)

// CoverPar is Cover with the comparability relation evaluated on a
// bounded worker pool: workers fill the adjacency rows (less is pure),
// and the matching then consumes edges in the exact (i, j) order Cover
// uses, so the cover is identical for every worker count. The n^2
// less-evaluations dominate when the order test is expensive (e.g. a
// Precedes check per pair), which is exactly the singular detector's
// case. workers <= 1 runs the exact sequential code.
func CoverPar(n int, less func(i, j int) bool, workers int) [][]int {
	if workers <= 1 {
		return Cover(n, less)
	}
	rows := make([][]int, n)
	par.Do(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				if i != j && less(i, j) {
					rows[i] = append(rows[i], j)
				}
			}
		}
	})
	b := matching.NewBipartite(n, n)
	for i := 0; i < n; i++ {
		for _, j := range rows[i] {
			b.AddEdge(i, j)
		}
	}
	_, succ := b.MaxMatching()
	hasPred := make([]bool, n)
	for i := 0; i < n; i++ {
		if succ[i] >= 0 {
			hasPred[succ[i]] = true
		}
	}
	var cover [][]int
	for i := 0; i < n; i++ {
		if hasPred[i] {
			continue
		}
		chain := []int{i}
		for x := succ[i]; x >= 0; x = succ[x] {
			chain = append(chain, x)
		}
		cover = append(cover, chain)
	}
	return cover
}
