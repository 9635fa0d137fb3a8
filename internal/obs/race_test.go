package obs

import (
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one registry and one trace from many
// goroutines — the pattern of parallel stream sessions publishing into the
// shared engine registry. Run under -race in CI.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace()
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("events_total")
			g := r.Gauge("depth")
			h := r.Histogram("lat", ExpBuckets(1, 10)...)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 100))
				end := tr.Span("work")
				tr.Add("ops", 1)
				tr.Max("peak", int64(i))
				end()
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = tr.Report()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("events_total").Value(); got != workers*iters {
		t.Errorf("events_total = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := tr.Report().Counters["ops"]; got != workers*iters {
		t.Errorf("trace ops = %d, want %d", got, workers*iters)
	}
}
