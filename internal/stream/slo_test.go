package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// sloBreachEngine builds an engine with a 1ns verdict-latency budget —
// any latched verdict breaches — dumping the flight ring to dumpPath.
// Breach notifications arrive on the returned channel as rule names.
func sloBreachEngine(dumpPath, format string) (*Engine, *obs.Registry, chan string) {
	reg := obs.NewRegistry()
	breached := make(chan string, 8)
	e := NewEngine(Config{
		Shards:  1,
		Metrics: reg,
		Flight:  obs.NewFlight(128),
		SLO: SLOConfig{
			VerdictLatency: time.Nanosecond,
			DumpPath:       dumpPath,
			DumpFormat:     format,
			OnBreach:       func(rule, detail, path string) { breached <- rule + "|" + path },
		},
	})
	return e, reg, breached
}

// latchVerdict opens a two-process conjunctive session and appends
// concurrent true events, which latches Possibly on the first flush.
func latchVerdict(t *testing.T, e *Engine, id string) {
	t.Helper()
	if err := e.Open(id, Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(id, []Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
}

func waitBreach(t *testing.T, breached chan string, wantRule, wantPath string) {
	t.Helper()
	select {
	case got := <-breached:
		if want := wantRule + "|" + wantPath; got != want {
			t.Fatalf("breach notification = %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SLO breach within 5s")
	}
}

// TestSLOVerdictLatencyBreach is the watchdog end-to-end test: an
// artificially low verdict-latency budget must bump
// slo_breaches_total{rule="verdict_latency"} and dump a flight ring
// containing the offending frame's full lifecycle (recv → delivered →
// update → verdict under one sequence number).
func TestSLOVerdictLatencyBreach(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	e, reg, breached := sloBreachEngine(dump, "json")
	defer e.Shutdown()
	latchVerdict(t, e, "sess-a")
	waitBreach(t, breached, SLOVerdictLatency, dump)

	snap := reg.Snapshot()
	rule := `slo_breaches_total{rule="` + SLOVerdictLatency + `"}`
	if n := snap.Counters[rule]; n != 1 {
		t.Errorf("%s = %d, want 1", rule, n)
	}
	// The other rules must exist as explicit zeros (scrape-able before
	// they first fire).
	for _, r := range []string{SLOHoldbackDepth, SLOMailboxDepth, SLOShedFrames, SLOTenantCPUShare, SLORetainedEvents} {
		name := `slo_breaches_total{rule="` + r + `"}`
		if n, ok := snap.Counters[name]; !ok || n != 0 {
			t.Errorf("%s = %d (present %v), want explicit 0", name, n, ok)
		}
	}

	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var fs obs.FlightSnapshot
	if err := json.Unmarshal(raw, &fs); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	var verdictSeq uint64
	for _, r := range fs.Records {
		if r.Stage == obs.StageVerdict && r.Session == "sess-a" {
			verdictSeq = r.Seq
		}
	}
	if verdictSeq == 0 {
		t.Fatalf("no verdict record in dump: %+v", fs.Records)
	}
	lifecycle := map[obs.FlightStage]bool{}
	for _, r := range fs.Records {
		if r.Session == "sess-a" && r.Seq == verdictSeq {
			lifecycle[r.Stage] = true
		}
	}
	for _, stage := range []obs.FlightStage{obs.StageRecv, obs.StageDelivered, obs.StageUpdate, obs.StageVerdict} {
		if !lifecycle[stage] {
			t.Errorf("offending frame seq %d missing %q record; dump: %+v", verdictSeq, stage, fs.Records)
		}
	}
}

// TestSLOBreachDumpChromeFormat repeats the breach with DumpFormat
// "chrome" and schema-checks the dump as Chrome trace-event JSON: every
// event carries ph/ts/pid (tid for non-metadata), and event names are
// lifecycle stages on a thread named after the session.
func TestSLOBreachDumpChromeFormat(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight-chrome.json")
	e, _, breached := sloBreachEngine(dump, "chrome")
	defer e.Shutdown()
	latchVerdict(t, e, "sess-b")
	waitBreach(t, breached, SLOVerdictLatency, dump)

	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome dump does not parse: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome dump has no events")
	}
	stageNames := map[string]bool{
		"recv": true, "held": true, "delivered": true, "update": true,
		"verdict": true, "shed": true, "disconnect": true, "holdback": true,
	}
	threads := map[float64]string{}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		if ev["ph"] == "M" {
			if ev["name"] == "thread_name" {
				threads[ev["tid"].(float64)] = ev["args"].(map[string]any)["name"].(string)
			}
			continue
		}
		if _, ok := ev["tid"]; !ok {
			t.Fatalf("event %d missing tid: %v", i, ev)
		}
		if name := ev["name"].(string); !stageNames[name] {
			t.Errorf("event %d name %q is not a lifecycle stage", i, name)
		}
	}
	var onSession bool
	for _, name := range threads {
		if name == "sess-b" {
			onSession = true
		}
	}
	if !onSession {
		t.Errorf("no thread named after the session: %v", threads)
	}
}

// TestSLOShedFramesBreach appends to a session nobody opened past a
// one-frame shed budget: the rule must fire exactly once (engine-wide
// latch) no matter how many more frames shed.
func TestSLOShedFramesBreach(t *testing.T) {
	reg := obs.NewRegistry()
	breached := make(chan string, 8)
	flight := obs.NewFlight(256)
	e := NewEngine(Config{
		Shards: 1, QueueLen: 2, BatchSize: 1,
		Metrics: reg,
		Flight:  flight,
		SLO: SLOConfig{
			ShedFrames: 1,
			OnBreach:   func(rule, detail, path string) { breached <- rule + "|" + path },
		},
	})
	defer e.Shutdown()
	const frames = 20
	for i := int64(1); i <= frames; i++ {
		if err := e.Append("ghost", []Event{{Proc: 0, VC: []int64{i}, Val: i % 2}}); err != nil {
			t.Fatal(err)
		}
	}
	waitBreach(t, breached, SLOShedFrames, "")
	// One shard drains in order: once a control message for the same id
	// is answered, every append before it has been applied.
	if _, _, err := e.QueryUpdates("ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("query of a never-opened session: %v, want ErrUnknownSession", err)
	}
	snap := e.Snapshot()
	if snap.Dropped != frames {
		t.Fatalf("shed %d frames, want every one of the %d", snap.Dropped, frames)
	}
	rule := `slo_breaches_total{rule="` + SLOShedFrames + `"}`
	if n := reg.Snapshot().Counters[rule]; n != 1 {
		t.Errorf("%s = %d, want exactly 1 (latched)", rule, n)
	}
	shed := `stream_shed_frames_total{shard="0"}`
	if n := reg.Snapshot().Counters[shed]; uint64(n) != snap.Dropped {
		t.Errorf("%s = %d, want %d (same as shard atomics)", shed, n, snap.Dropped)
	}
	// Every shed frame left its shed record in the flight ring.
	var records uint64
	for _, r := range flight.Snapshot() {
		if r.Stage == obs.StageShed {
			records++
			if r.Session != "ghost" || !strings.HasPrefix(r.Detail, "unknown session") {
				t.Errorf("shed record %+v, want session ghost and an unknown session", r)
			}
		}
	}
	if records != snap.Dropped {
		t.Errorf("%d shed records, want one per shed frame (%d)", records, snap.Dropped)
	}
}

// TestSLOHoldbackDepthBreach streams process 0's events last first,
// one frame each and a query after each: the first two frames are held,
// the rule fires once the holdback passes its one-event budget, and the
// flight ring records the episode as a held record under the frame that
// opened it and a "holdback drained" delivered record under the same
// seq, which the Chrome export pairs into one holdback slice.
func TestSLOHoldbackDepthBreach(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlight(64)
	breached := make(chan string, 8)
	e := NewEngine(Config{
		Shards: 1, Metrics: reg, Flight: flight,
		SLO: SLOConfig{
			HoldbackDepth: 1,
			OnBreach:      func(rule, detail, path string) { breached <- rule + "|" + path },
		},
	})
	defer e.Shutdown()
	if err := e.Open("rev", Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	var holdback []int
	for i := int64(3); i >= 1; i-- {
		if err := e.Append("rev", []Event{{Proc: 0, VC: []int64{i, 0}}}); err != nil {
			t.Fatal(err)
		}
		st, _, err := e.QueryUpdates("rev")
		if err != nil {
			t.Fatal(err)
		}
		holdback = append(holdback, st.Holdback)
	}
	if holdback[0] != 1 || holdback[1] != 2 || holdback[2] != 0 {
		t.Fatalf("holdback after each frame = %v, want [1 2 0]", holdback)
	}
	waitBreach(t, breached, SLOHoldbackDepth, "")
	rule := `slo_breaches_total{rule="` + SLOHoldbackDepth + `"}`
	if n := reg.Snapshot().Counters[rule]; n != 1 {
		t.Errorf("%s = %d, want 1", rule, n)
	}

	var recvs []uint64
	held, drained := map[uint64]int{}, map[uint64]int{}
	for _, r := range flight.Snapshot() {
		switch {
		case r.Stage == obs.StageRecv:
			recvs = append(recvs, r.Seq)
		case r.Stage == obs.StageHeld:
			held[r.Seq]++
		case r.Stage == obs.StageDelivered && r.Detail == "holdback drained":
			drained[r.Seq]++
		}
	}
	if len(recvs) != 3 {
		t.Fatalf("recv seqs %v, want three frames", recvs)
	}
	opening := recvs[0]
	if len(held) != 1 || held[opening] != 1 || len(drained) != 1 || drained[opening] != 1 {
		t.Fatalf("held %v, drained %v: want one of each under the opening frame's seq %d", held, drained, opening)
	}

	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "holdback" {
			slices++
			args := ev["args"].(map[string]any)
			if ev["ph"] != "X" || args["seq"] != float64(opening) || args["session"] != "rev" {
				t.Errorf("holdback slice %v, want a duration event for seq %d of rev", ev, opening)
			}
		}
	}
	if slices != 1 {
		t.Errorf("%d holdback slices in the Chrome export, want 1", slices)
	}
}

// TestSLOMailboxDepthBreach holds the shard worker inside an OnBreach
// callback (a 1ns verdict-latency budget, breached by the latching
// frame) while five more frames queue behind it. Released, the worker
// drains one frame per batch and finds four still queued, past the
// two-frame budget: the rule fires, once for the shard.
func TestSLOMailboxDepthBreach(t *testing.T) {
	reg := obs.NewRegistry()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var releaseOnce sync.Once
	breached := make(chan string, 8)
	e := NewEngine(Config{
		Shards: 1, BatchSize: 1, Metrics: reg,
		SLO: SLOConfig{
			VerdictLatency: time.Nanosecond,
			MailboxDepth:   2,
			OnBreach: func(rule, detail, path string) {
				if rule == SLOVerdictLatency {
					entered <- struct{}{}
					<-release
				}
				breached <- rule + "|" + path
			},
		},
	})
	defer e.Shutdown()
	defer releaseOnce.Do(func() { close(release) }) // runs before Shutdown
	latchVerdict(t, e, "hold")
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the verdict-latency breach never held the worker")
	}
	for i := int64(2); i <= 6; i++ {
		if err := e.Append("hold", []Event{{Proc: 0, VC: []int64{i, 0}, Truth: true}}); err != nil {
			t.Fatal(err)
		}
	}
	releaseOnce.Do(func() { close(release) })
	waitBreach(t, breached, SLOVerdictLatency, "")
	waitBreach(t, breached, SLOMailboxDepth, "")
	if _, _, err := e.QueryUpdates("hold"); err != nil { // every queued frame applied
		t.Fatal(err)
	}
	rule := `slo_breaches_total{rule="` + SLOMailboxDepth + `"}`
	if n := reg.Snapshot().Counters[rule]; n != 1 {
		t.Errorf("%s = %d, want exactly 1 (latched per shard)", rule, n)
	}
}
