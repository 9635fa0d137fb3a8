package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Error("counter not interned")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	snap := r.Snapshot()
	if snap.Counters["hits"] != 5 || snap.Gauges["depth"] != 7 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []int64{0, 1, 2, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// <=1: {0,1}; <=10: {2,10}; <=100: {11,100}; +Inf: {1000}.
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", i, s.Buckets[i], w, s)
		}
	}
	if s.Count != 7 || s.Sum != 1124 {
		t.Errorf("count/sum = %d/%d, want 7/1124", s.Count, s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z", 1, 2).Observe(3)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Errorf("nil registry snapshot has %d counters", n)
	}
	var tr *Trace
	end := tr.Span("phase")
	end()
	tr.Add("work", 1)
	tr.Note("k", "v")
	if rep := tr.Report(); len(rep.Spans) != 0 || len(rep.Counters) != 0 {
		t.Errorf("nil trace report = %+v", rep)
	}
}

func TestTraceSpansAndCounters(t *testing.T) {
	tr := NewTrace()
	endOuter := tr.Span("detect")
	endInner := tr.Span("sumrange")
	tr.Add("paths", 3)
	tr.Add("paths", 2)
	tr.Note("strategy", "chain-cover")
	time.Sleep(time.Millisecond)
	endInner()
	endOuter()
	rep := tr.Report()
	if len(rep.Spans) != 2 {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	if rep.Spans[0].Name != "detect" || rep.Spans[0].Depth != 0 {
		t.Errorf("outer span = %+v", rep.Spans[0])
	}
	if rep.Spans[1].Name != "sumrange" || rep.Spans[1].Depth != 1 {
		t.Errorf("inner span = %+v", rep.Spans[1])
	}
	if rep.Spans[0].Duration < rep.Spans[1].Duration || rep.Spans[1].Duration == 0 {
		t.Errorf("durations outer=%v inner=%v", rep.Spans[0].Duration, rep.Spans[1].Duration)
	}
	if rep.Counters["paths"] != 5 {
		t.Errorf("counters = %v", rep.Counters)
	}
	if rep.Notes["strategy"] != "chain-cover" {
		t.Errorf("notes = %v", rep.Notes)
	}
	out := rep.String()
	for _, want := range []string{"detect", "  sumrange", "paths", "5", "strategy", "chain-cover"} {
		if !strings.Contains(out, want) {
			t.Errorf("report %q missing %q", out, want)
		}
	}
}

// TestTraceOpenSpans is the regression test for spans whose closer never
// runs: before Start/Open were recorded, such a span reported a silent
// zero duration indistinguishable from "instantaneous".
func TestTraceOpenSpans(t *testing.T) {
	tr := NewTrace()
	endDone := tr.Span("finished")
	endDone()
	tr.Span("stuck") // closer discarded: the phase hung
	time.Sleep(time.Millisecond)
	rep := tr.Report()
	if len(rep.Spans) != 2 {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	done, stuck := rep.Spans[0], rep.Spans[1]
	if done.Open {
		t.Errorf("closed span marked open: %+v", done)
	}
	if !stuck.Open {
		t.Errorf("un-ended span not marked open: %+v", stuck)
	}
	if stuck.Start.IsZero() || stuck.Duration < time.Millisecond {
		t.Errorf("open span start=%v duration=%v, want start set and duration >= 1ms",
			stuck.Start, stuck.Duration)
	}
	if !strings.Contains(rep.String(), "stuck") || !strings.Contains(rep.String(), "(open)") {
		t.Errorf("report does not flag the open span:\n%s", rep.String())
	}
	// The report is a copy: a second report later must measure a longer
	// duration, not mutate the first.
	time.Sleep(time.Millisecond)
	if rep2 := tr.Report(); rep2.Spans[1].Duration <= stuck.Duration {
		t.Errorf("open-span duration did not advance: %v then %v",
			stuck.Duration, rep2.Spans[1].Duration)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(42)
	shardEvents := r.CounterVec("shard_events_total", "shard")
	shardEvents.With("0").Add(7)
	shardEvents.With("1").Add(9)
	r.Gauge("sessions_open").Set(3)
	h := r.Histogram("holdback_depth", 1, 8)
	h.Observe(0)
	h.Observe(5)
	h.Observe(100)
	var b strings.Builder
	if err := r.WritePrometheus(&b, "gpd"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE gpd_events_total counter",
		"gpd_events_total 42",
		`gpd_shard_events_total{shard="0"} 7`,
		`gpd_shard_events_total{shard="1"} 9`,
		"# TYPE gpd_sessions_open gauge",
		"gpd_sessions_open 3",
		"# TYPE gpd_holdback_depth histogram",
		`gpd_holdback_depth_bucket{le="1"} 1`,
		`gpd_holdback_depth_bucket{le="8"} 2`,
		`gpd_holdback_depth_bucket{le="+Inf"} 3`,
		"gpd_holdback_depth_sum 105",
		"gpd_holdback_depth_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name, even with two labeled series.
	if n := strings.Count(out, "# TYPE gpd_shard_events_total counter"); n != 1 {
		t.Errorf("TYPE line written %d times", n)
	}
}
