package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCounterVecOverflow checks the cardinality cap: the N+1st label
// tuple lands on the shared "other" series, the total across every
// exposed series is conserved, and existing tuples keep their own
// series after overflow starts.
func TestCounterVecOverflow(t *testing.T) {
	r := NewRegistry()
	vec := newVec[Counter]("tenant_events_total", []string{"tenant"}, 2)
	r.counters[vec.name] = vec

	vec.With("a").Add(1)
	vec.With("b").Add(2)
	vec.With("c").Add(4)  // past the cap -> other
	vec.With("d").Add(8)  // shares the same other series
	vec.With("a").Add(16) // interned before the cap: still its own series

	snap := r.Snapshot()
	want := map[string]int64{
		`tenant_events_total{tenant="a"}`:     17,
		`tenant_events_total{tenant="b"}`:     2,
		`tenant_events_total{tenant="other"}`: 12,
	}
	var sum int64
	for name, v := range snap.Counters {
		sum += v
		if want[name] != v {
			t.Errorf("series %s = %d, want %d", name, v, want[name])
		}
	}
	if len(snap.Counters) != len(want) {
		t.Errorf("got %d series, want %d: %v", len(snap.Counters), len(want), snap.Counters)
	}
	if sum != 31 {
		t.Errorf("counters not conserved across overflow: sum %d, want 31", sum)
	}
}

// TestVecWrongArity checks that a With call with the wrong number of
// values cannot mint a malformed series — it lands on overflow.
func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("pair_total", "tenant", "family")
	vec.With("only-one").Inc()
	vec.With("a", "b", "c").Inc()
	snap := r.Snapshot()
	if got := snap.Counters[`pair_total{tenant="other",family="other"}`]; got != 2 {
		t.Errorf("arity misuse did not land on overflow: %v", snap.Counters)
	}
}

// TestVecEscapingRoundTrip drives hostile label values through a vector
// and checks every exposition line parses and every value round-trips —
// the vector-path twin of TestWritePrometheusEscaping.
func TestVecEscapingRoundTrip(t *testing.T) {
	hostile := []string{`quote"inside`, `back\slash`, "new\nline", `all"three\of` + "\nthem"}
	r := NewRegistry()
	vec := r.GaugeVec("hostile_gauge", "v")
	for i, v := range hostile {
		vec.With(v).Set(int64(i + 1))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b, "gpd"); err != nil {
		t.Fatal(err)
	}
	values := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as exposition 0.0.4: %q", line)
			continue
		}
		if i := strings.Index(line, `v="`); i >= 0 {
			raw := line[i+3 : strings.LastIndex(line, `"`)]
			values[unescapeLabelValue(raw)] = true
		}
	}
	for _, v := range hostile {
		if !values[v] {
			t.Errorf("label value %q did not round-trip\n%s", v, b.String())
		}
	}
}

// TestVecNilSafety checks the whole nil chain: nil registry -> nil
// vector -> nil handle, with every method a no-op.
func TestVecNilSafety(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "k").With("v").Inc()
	r.GaugeVec("x", "k").With("v").Set(1)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	var cv *CounterVec
	if c := cv.With("v"); c != nil {
		t.Error("nil CounterVec.With returned non-nil")
	}
	var gv *GaugeVec
	if g := gv.With("v"); g != nil {
		t.Error("nil GaugeVec.With returned non-nil")
	}
}

// TestVecConcurrent hammers one vector from many goroutines across more
// tenants than the cap, under -race in CI, and checks conservation.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	vec := newVec[Counter]("conc_total", []string{"tenant"}, 4)
	r.counters[vec.name] = vec
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vec.With(fmt.Sprintf("tenant-%d", (w+i)%8)).Inc()
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, v := range r.Snapshot().Counters {
		sum += v
	}
	if sum != workers*perWorker {
		t.Errorf("sum %d, want %d", sum, workers*perWorker)
	}
}
