package stream

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	for _, r := range []string{SLOHoldbackDepth, SLOMailboxDepth, SLOShedFrames} {
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

// TestSLOShedFramesBreach floods a tiny DropOldest mailbox past a
// one-frame shed budget: the rule must fire exactly once (engine-wide
// latch) no matter how many more frames shed.
func TestSLOShedFramesBreach(t *testing.T) {
	reg := obs.NewRegistry()
	breached := make(chan string, 8)
	e := NewEngine(Config{
		Shards: 1, QueueLen: 2, BatchSize: 1, Policy: DropOldest,
		Metrics: reg,
		Flight:  obs.NewFlight(64),
		SLO: SLOConfig{
			ShedFrames: 1,
			OnBreach:   func(rule, detail, path string) { breached <- rule + "|" + path },
		},
	})
	defer e.Shutdown()
	if err := e.Open("a", Spec{Pred: "sum(x) == 5", Procs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2000; i++ {
		if err := e.Append("a", []Event{{Proc: 0, VC: []int64{i}, Val: i % 2}}); err != nil {
			t.Fatal(err)
		}
	}
	waitBreach(t, breached, SLOShedFrames, "")
	snap := e.Snapshot()
	if snap.Dropped < 2 {
		t.Fatalf("expected many shed frames, got %d", snap.Dropped)
	}
	rule := `slo_breaches_total{rule="` + SLOShedFrames + `"}`
	if n := reg.Snapshot().Counters[rule]; n != 1 {
		t.Errorf("%s = %d, want exactly 1 (latched)", rule, n)
	}
	// Shed accounting now reaches the obs counters on the overflow path
	// too (the seed only counted unknown-session drops there).
	shed := `stream_shed_frames_total{shard="0"}`
	if n := reg.Snapshot().Counters[shed]; uint64(n) != snap.Dropped {
		t.Errorf("%s = %d, want %d (same as shard atomics)", shed, n, snap.Dropped)
	}
}
