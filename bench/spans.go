package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one session share
// Session; Parent is the ID of the span that caused this one (0: none).
// Times are nanoseconds since the run's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Each goroutine owns
// its own log (base keeps their ids apart); write merges them.
type spanLog struct {
	epoch time.Time
	base  int
	spans []span
}

func newSpanLog(epoch time.Time, base int) *spanLog { return &spanLog{epoch: epoch, base: base} }

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(name, session string, parent int) int {
	l.spans = append(l.spans, span{
		ID: l.base + len(l.spans) + 1, Parent: parent, Name: name, Session: session,
		Start: int64(time.Since(l.epoch)),
	})
	return l.base + len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-l.base-1].End = int64(time.Since(l.epoch)) }

// add records an already-timed span (the in-process layer replays time
// their calls themselves).
func (l *spanLog) add(name, session string, parent int, start time.Time, d time.Duration) int {
	st := int64(start.Sub(l.epoch))
	l.spans = append(l.spans, span{ID: l.base + len(l.spans) + 1, Parent: parent, Name: name, Session: session, Start: st, End: st + int64(d)})
	return l.base + len(l.spans)
}

// spanCost times recording one span.
func spanCost() time.Duration {
	const n = 100_000
	l := newSpanLog(time.Now(), 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.end(l.begin("calibration", "", 0))
	}
	return time.Since(t0) / n
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Counts   map[string]float64 `json:"counts"` // the per-layer metrics, taken at the same boundaries
	Spans    []span             `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, rep *report, logs ...*spanLog) error {
	tf := traceFile{Workload: workload, Seed: seed, Counts: map[string]float64{}}
	for _, d := range perLayer {
		tf.Counts[d.Name] = rep.values[d.Name]
	}
	for _, l := range logs {
		if l != nil {
			tf.Spans = append(tf.Spans, l.spans...)
		}
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].Start < tf.Spans[j].Start })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
