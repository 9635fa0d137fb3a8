package stream

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// exportedSeries is the /metrics contract: every base name the engine
// (plus the runtime bridge gpdserver binds) exports, with the consumer
// that reads its value, checked by checkConsumers (signals_test.go).
var exportedSeries = map[string]string{
	"stream_events_total":        "bench/ events_per_s; ShardStats.Events on /debug/vars",
	"stream_frames_total":        "cmd/gpdserver TestMetricsEndpoint; ShardStats.Frames on /debug/vars",
	"stream_batches_total":       "ShardStats.Batches on /debug/vars (frames per drain; checked below)",
	"stream_shed_frames_total":   "TestSLOShedFramesBreach; ShardStats.DroppedFrames (bench/ engine.dropped_frames)",
	"stream_shed_events_total":   "ShardStats.DroppedEvents on /debug/vars (checked below)",
	"stream_detections_total":    "cmd/gpdserver TestMetricsEndpoint; ShardStats.Detections on /debug/vars",
	"stream_sessions":            "ShardStats.Sessions on /debug/vars (TestEngineSnapshotAggregates, TestProfileLabelsOnShardGoroutines)",
	"stream_finalize_millis":     "cmd/gpdserver TestMetricsEndpoint (close-time Definitely rebuild latency)",
	"stream_finalize_work_total": "cmd/gpdserver TestMetricsEndpoint (stream.rebuilt_events)",
	"mux_steps_total":            "README multi-predicate recipe",
	"mux_steps_skipped_total":    "README multi-predicate recipe; the scripted run below",
	"mux_registered_predicates":  "README multi-predicate recipe; cmd/gpdserver TestTenantsEndpoint",
	"slo_breaches_total":         "the SLO watchdog's own output: slo_test.go, README SLO section",

	"runtime_heap_live_bytes":         "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_heap_objects":            "README runtime self-telemetry recipe",
	"runtime_alloc_bytes_total":       "bench/ alloc_bytes_per_event",
	"runtime_goroutines":              "cmd/gpdserver TestTenantsEndpoint",
	"runtime_gc_cycles":               "bench/ server.gc_cycles",
	"runtime_gc_pause_p50_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_gc_pause_p99_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_gc_pause_max_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_sched_latency_p50_nanos": "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_sched_latency_p99_nanos": "bench/ server.sched_latency_p99_us",
	"runtime_sched_latency_max_nanos": "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
}

// TestExportedSeriesSet drives a retaining, a plain and a mux session
// through open, append, query and close (plus one shed frame) on an
// engine with a registry and requires the registry's base names to be
// exactly the table above — and the docs to mention no gpd_<series> the
// table lacks. The counters a scripted run pins are checked too, so
// "one store per fact" cannot drift from what Snapshot reports.
func TestExportedSeriesSet(t *testing.T) {
	reg := obs.NewRegistry()
	obs.BindRuntimeMetrics(reg)
	e := NewEngine(Config{Shards: 1, Metrics: reg, Ledger: obs.NewLedger()})
	defer e.Shutdown()

	truth := []Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Val: 1, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Val: 1, Truth: true},
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The retaining session's final cut fails all(x), so its close
	// rebuilds the trace (stream_finalize_work_total).
	residue := append(truth[:2:2], Event{Proc: 0, VC: []int64{2, 0}, Var: "x"})
	must(e.Open("retain", Spec{Pred: "all(x)", Procs: 2, Retain: true}))
	must(e.Open("plain", Spec{Pred: "all(x)", Procs: 2}))
	must(e.Open("mux", Spec{Mux: true, Procs: 2}))
	_, err := e.Register("mux", RegisterSpec{ID: "p", Tenant: "acme", Pred: "sum(x) >= 2"})
	must(err)
	_, err = e.Register("mux", RegisterSpec{ID: "q", Tenant: "acme", Pred: "sum(y) >= 1"})
	must(err)
	for _, id := range []string{"retain", "plain", "mux"} {
		evs := truth
		if id == "retain" {
			evs = residue
		}
		must(e.Append(id, evs))
		_, _, err := e.QueryUpdates(id)
		must(err)
	}
	must(e.Append("nobody", truth)) // shed: unknown session
	// The registration counts are summed when the snapshot is built.
	if snap := e.Snapshot(); snap.Predicates != 2 || len(snap.Tenants) != 1 || snap.Tenants["acme"] != 2 {
		t.Errorf("before close: predicates=%d tenants=%v, want 2 and acme=2", snap.Predicates, snap.Tenants)
	}
	for _, id := range []string{"retain", "plain", "mux"} {
		_, _, err := e.ClosePredicates(id)
		must(err)
	}

	snap := reg.Snapshot()
	var got []string
	for name := range snap.Counters {
		got = append(got, baseOf(name))
	}
	for name := range snap.Gauges {
		got = append(got, baseOf(name))
	}
	for name := range snap.Histograms {
		got = append(got, baseOf(name))
	}
	checkConsumers(t, "series", got, exportedSeries)

	// Deterministic counters of the script, and the Snapshot view of the
	// same stores.
	for name, want := range map[string]int64{
		`stream_events_total{shard="0"}`:      7,
		`stream_frames_total{shard="0"}`:      15, // 3 open, 2 register, 4 append, 3 query, 3 close
		`stream_shed_frames_total{shard="0"}`: 1,
		`stream_shed_events_total{shard="0"}`: 2,
		`stream_detections_total{shard="0"}`:  3, // every session latches (mux: on its first predicate)
		"mux_steps_total":                     2,
		"mux_steps_skipped_total":             2,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if es := e.Snapshot(); es.Predicates != 0 || len(es.Tenants) != 0 || snap.Gauges[`mux_registered_predicates{tenant="acme"}`] != 0 {
		t.Errorf("after close: predicates=%d tenants=%v, gauge %d", es.Predicates, es.Tenants,
			snap.Gauges[`mux_registered_predicates{tenant="acme"}`])
	}
	sh := e.Snapshot().Shards[0]
	if sh.Events != 7 || sh.Frames != 15 || sh.DroppedFrames != 1 || sh.DroppedEvents != 2 || sh.Detections != 3 || sh.Sessions != 0 ||
		sh.Batches < 1 || sh.Batches > sh.Frames {
		t.Errorf("Snapshot disagrees with the registry: %+v", sh)
	}

	// Docs: every gpd_<name> token must be (a prefix of — grep recipes
	// and gpd_runtime_* globs are prefixes) an exported series.
	exported := func(prefix string) bool {
		for name := range exportedSeries {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	token := regexp.MustCompile(`gpd_[a-z0-9_]+`)
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		must(err)
		for _, tok := range token.FindAllString(string(text), -1) {
			if !exported(strings.TrimPrefix(tok, "gpd_")) {
				t.Errorf("%s mentions %s, which is not an exported series", doc, tok)
			}
		}
	}
}

func baseOf(series string) string {
	name, _, _ := strings.Cut(series, "{")
	return name
}
