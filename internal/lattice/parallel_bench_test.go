package lattice

import (
	"fmt"
	"testing"

	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// BenchmarkParallelLattice runs every entry point of the one lattice
// search at increasing worker counts, each reporting the cuts it
// explored per operation:
//
//   - par=W: Definitely's search (initial to final over the complement of
//     a predicate that never holds) on a wide 7x5 lattice, the worst-case
//     sweep: every level is generated and evaluated;
//   - region/par=W: a region search on the same lattice that finds its
//     path after pruning about a tenth of the cuts;
//   - count: the plain enumeration (one worker);
//   - levels/PxE/par=W: the level-4 set of the equilevel cells' PxE
//     computations.
func BenchmarkParallelLattice(b *testing.B) {
	c := gen.Random(gen.Params{Seed: 42, Procs: 7, Events: 5, MsgFrac: 0.3})
	gen.UnitStepVar(43, c, "x")
	avoids := not(sumAtLeast("x", 1000))
	region := sumAtLeast("x", 4) // the tightest threshold that still has a path
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", w), func(b *testing.B) {
			benchRegion(b, func(tr *obs.Trace) bool {
				return !PathExists(c, c.InitialCut(), c.FinalCut(), avoids, w, tr)
			}, false)
		})
		b.Run(fmt.Sprintf("region/par=%d", w), func(b *testing.B) {
			benchRegion(b, func(tr *obs.Trace) bool {
				return PathExists(c, c.InitialCut(), c.FinalCut(), region, w, tr)
			}, true)
		})
	}
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			n = Count(c)
		}
		b.ReportMetric(float64(n), "cuts/op")
	})
	for _, size := range [][2]int{{8, 32}, {16, 64}, {32, 128}} {
		c := gen.Random(gen.Params{Seed: 42, Procs: size[0], Events: size[1], MsgFrac: 0.3})
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("levels/%dx%d/par=%d", size[0], size[1], w), func(b *testing.B) {
				b.ReportAllocs()
				var tr *obs.Trace
				for i := 0; i < b.N; i++ {
					tr = obs.NewTrace()
					LevelCutsTraced(c, 4, w, tr)
				}
				b.ReportMetric(float64(tr.Report().Counters["lattice.level_cuts_explored"]), "cuts/op")
			})
		}
	}
}

// benchRegion times one region search, checks its verdict and reports
// the region cuts it explored.
func benchRegion(b *testing.B, search func(*obs.Trace) bool, want bool) {
	b.ReportAllocs()
	var tr *obs.Trace
	for i := 0; i < b.N; i++ {
		tr = obs.NewTrace()
		if search(tr) != want {
			b.Fatalf("verdict %v, want %v", !want, want)
		}
	}
	b.ReportMetric(float64(tr.Report().Counters["lattice.region_cuts_explored"]), "cuts/op")
}
