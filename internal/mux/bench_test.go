package mux

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// BenchmarkMultiPredicate measures the multiplexer's per-event cost as
// the number of concurrently registered predicates grows from 100 to
// 10000. Predicates spread over ~n/10 variables, so each delivered
// event touches ~10 subscribers regardless of n: the reported
// steps/event metric stays flat while registrations grow 100× — the
// sublinear routing the relevance index exists for — and the physical
// work (coreflushes/flush, cores) is bounded by the variables, not the
// predicates: the sum predicates of a variable share one range core,
// the count and levels predicates another. Thresholds are
// chosen unreachable so detectors stay active (the worst case; latching
// only makes the multiplexer cheaper).
func BenchmarkMultiPredicate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("preds=%d", n), func(b *testing.B) {
			const procs = 8
			nvars := n / 10
			if nvars < 1 {
				nvars = 1
			}
			g := NewGroup(procs)
			for i := 0; i < n; i++ {
				v := fmt.Sprintf("v%d", i%nvars)
				var spec pred.Spec
				switch i % 3 {
				case 0:
					spec = pred.Spec{Family: pred.Sum, Var: v, Rel: relsum.Ge, K: 1 << 40}
				case 1:
					spec = pred.Spec{Family: pred.Count, Var: v, Rel: relsum.Ge, K: procs + 1}
				default:
					spec = pred.Spec{Family: pred.Levels, Var: v, Levels: []int{procs}}
				}
				err := g.Register(Registration{
					ID:     fmt.Sprintf("p%d", i),
					Tenant: fmt.Sprintf("t%d", i%8),
					Spec:   spec,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(42))
			vcs := make([][]int64, procs)
			for p := range vcs {
				vcs[p] = make([]int64, procs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % procs
				if i%7 == 6 { // periodic cross-process causality
					q := (p + 1) % procs
					for c := range vcs[p] {
						if vcs[q][c] > vcs[p][c] {
							vcs[p][c] = vcs[q][c]
						}
					}
				}
				vcs[p][p]++
				vc := make([]int64, procs)
				copy(vc, vcs[p])
				val := int64(rng.Intn(2))
				ev := detect.Event{
					Proc:  p,
					VC:    vc,
					Var:   fmt.Sprintf("v%d", rng.Intn(nvars)),
					Val:   val,
					Truth: val != 0,
				}
				if err := g.Step(ev); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					g.Flush()
				}
			}
			g.Flush()
			b.StopTimer()
			st := g.Stats()
			if st.Delivered > 0 {
				b.ReportMetric(float64(st.Steps)/float64(st.Delivered), "steps/event")
				b.ReportMetric(float64(st.Skipped)/float64(st.Delivered), "skipped/event")
				// The physical work behind those logical steps: one core
				// per (variable, payload) however many predicates share it.
				b.ReportMetric(float64(st.CoreFlushes)/float64(g.Flushes()), "coreflushes/flush")
				b.ReportMetric(float64(st.Cores), "cores")
			}
		})
	}
}
