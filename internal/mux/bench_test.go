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
	for _, n := range multiPredicateSizes {
		b.Run(fmt.Sprintf("preds=%d", n), func(b *testing.B) {
			g, nvars := multiPredicateGroup(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			multiPredicateDrive(b, g, nvars, b.N)
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

// TestMultiPredicateRoutingBounds asserts the benchmark's two
// deterministic counters on the benchmark's own workload. Relevance
// routing must keep detector steps per event flat as registrations grow
// 100x: ~n/10 variables means ~10 subscribers per event at every scale,
// so a blow-up past 40 means routing has degraded to stepping a
// super-constant predicate fraction. And those logical steps must stay
// views over shared range cores: a group flush may flush at most the sum
// core and the truth core of every variable. One tracker per predicate
// (the pre-sharing design) or cores that stop merging after
// re-registration blow through that.
func TestMultiPredicateRoutingBounds(t *testing.T) {
	for _, n := range multiPredicateSizes {
		g, nvars := multiPredicateGroup(t, n)
		multiPredicateDrive(t, g, nvars, 20000)
		st := g.Stats()
		if steps := float64(st.Steps) / float64(st.Delivered); steps > 40 {
			t.Errorf("preds=%d: %.1f steps/event, want <= 40: relevance routing is no longer sublinear", n, steps)
		}
		if cf := float64(st.CoreFlushes) / float64(g.Flushes()); cf > float64(2*nvars) {
			t.Errorf("preds=%d: %.1f core flushes per group flush, want <= 2 x %d variables: predicates of a variable no longer share one range core per payload", n, cf, nvars)
		}
	}
}

// The multi-predicate workload's registration counts and process count.
var multiPredicateSizes = []int{100, 1000, 10000}

const multiPredicateProcs = 8

// multiPredicateGroup registers n never-latching predicates (sum, count
// and levels in turn, eight tenants) over n/10 variables on 8 processes.
func multiPredicateGroup(tb testing.TB, n int) (g *Group, nvars int) {
	nvars = n / 10
	g = NewGroup(multiPredicateProcs)
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("v%d", i%nvars)
		var spec pred.Spec
		switch i % 3 {
		case 0:
			spec = pred.Spec{Family: pred.Sum, Var: v, Rel: relsum.Ge, K: 1 << 40}
		case 1:
			spec = pred.Spec{Family: pred.Count, Var: v, Rel: relsum.Ge, K: multiPredicateProcs + 1}
		default:
			spec = pred.Spec{Family: pred.Levels, Var: v, Levels: []int{multiPredicateProcs}}
		}
		err := g.Register(Registration{
			ID:     fmt.Sprintf("p%d", i),
			Tenant: fmt.Sprintf("t%d", i%8),
			Spec:   spec,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return g, nvars
}

// multiPredicateDrive steps a seeded stream of events over random
// variables through g, flushing every 64 events and at the end.
func multiPredicateDrive(tb testing.TB, g *Group, nvars, events int) {
	rng := rand.New(rand.NewSource(42))
	vcs := make([][]int64, multiPredicateProcs)
	for p := range vcs {
		vcs[p] = make([]int64, multiPredicateProcs)
	}
	for i := 0; i < events; i++ {
		p := i % multiPredicateProcs
		if i%7 == 6 { // periodic cross-process causality
			q := (p + 1) % multiPredicateProcs
			for c := range vcs[p] {
				if vcs[q][c] > vcs[p][c] {
					vcs[p][c] = vcs[q][c]
				}
			}
		}
		vcs[p][p]++
		vc := make([]int64, multiPredicateProcs)
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
			tb.Fatal(err)
		}
		if i%64 == 63 {
			g.Flush()
		}
	}
	g.Flush()
}
