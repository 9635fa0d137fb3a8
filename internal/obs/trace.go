package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace accumulates the work report of one detection run: nested wall-time
// spans (one per phase) and named work counters (cuts explored, candidate
// eliminations, augmenting paths, ...). A nil *Trace is a valid no-op, so
// detectors thread it unconditionally and pay nothing when tracing is off.
//
// Traces are mutex-guarded: a run is normally single-goroutine, but the
// stream engine reads a session's trace from other goroutines.
type Trace struct {
	mu       sync.Mutex
	spans    []SpanReport
	open     []int // indices into spans of not-yet-ended spans (a stack)
	counters map[string]int64
	notes    map[string]string
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Span opens a named wall-time span and returns its closer. Spans nest:
// depth is the number of enclosing spans still open at start time. A
// span whose closer is never called is not lost: Report marks it Open
// and measures its duration up to the report.
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	idx := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, SpanReport{Name: name, Depth: len(t.open), Start: start})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans[idx].Duration = d
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// Add accumulates n into the named work counter.
func (t *Trace) Add(name string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += n
	t.mu.Unlock()
}

// Note records a named string fact about the run (e.g. the strategy that
// produced the answer). Later notes overwrite earlier ones.
func (t *Trace) Note(name, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.notes == nil {
		t.notes = make(map[string]string)
	}
	t.notes[name] = value
	t.mu.Unlock()
}

// SpanReport is one span of a run. A span whose closer had not run when
// the report was taken is marked Open, with Duration measured from Start
// to the report (it used to read as a silent zero). Start also positions
// the span on a timeline, which is what the Chrome-trace export needs.
type SpanReport struct {
	Name     string        `json:"name"`
	Depth    int           `json:"depth"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Open     bool          `json:"open,omitempty"`
}

// Report is the copied-out work report of a run.
type Report struct {
	// Spans lists the run's phases in start order.
	Spans []SpanReport `json:"spans,omitempty"`
	// Counters holds the run's accumulated work counters.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Notes holds string facts (strategy chosen, ...).
	Notes map[string]string `json:"notes,omitempty"`
}

// Report copies the trace out.
func (t *Trace) Report() Report {
	if t == nil {
		return Report{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{Spans: append([]SpanReport(nil), t.spans...)}
	for _, idx := range t.open {
		r.Spans[idx].Open = true
		r.Spans[idx].Duration = time.Since(r.Spans[idx].Start)
	}
	if len(t.counters) > 0 {
		r.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			r.Counters[k] = v
		}
	}
	if len(t.notes) > 0 {
		r.Notes = make(map[string]string, len(t.notes))
		for k, v := range t.notes {
			r.Notes[k] = v
		}
	}
	return r
}

// String renders the report for terminal output: spans indented by nesting
// depth, then notes, then counters in name order.
func (r Report) String() string {
	var b strings.Builder
	for _, s := range r.Spans {
		mark := ""
		if s.Open {
			mark = " (open)"
		}
		fmt.Fprintf(&b, "%s%-*s %12v%s\n",
			strings.Repeat("  ", s.Depth), 36-2*s.Depth, s.Name, s.Duration.Round(time.Microsecond), mark)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(&b, "%-36s %12s\n", k, r.Notes[k])
	}
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-36s %12d\n", k, r.Counters[k])
	}
	return b.String()
}
