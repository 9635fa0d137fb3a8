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
// that reads its value. A series with no consumer is deleted, not
// listed; a new one must name its reader here.
var exportedSeries = map[string]string{
	"stream_events_total":          "bench/ events_per_s and the CI metrics grep; ShardStats.Events on /debug/vars",
	"stream_frames_total":          "cmd/gpdserver TestStatsEndpoints; ShardStats.Frames on /debug/vars",
	"stream_batches_total":         "ShardStats.Batches on /debug/vars (frames per drain; checked below)",
	"stream_shed_frames_total":     "TestSLOShedFramesBreach; ShardStats.DroppedFrames (bench/ engine.dropped_frames)",
	"stream_shed_events_total":     "ShardStats.DroppedEvents on /debug/vars (checked below)",
	"stream_detections_total":      "cmd/gpdserver TestStatsEndpoints; ShardStats.Detections on /debug/vars",
	"stream_sessions":              "ShardStats.Sessions on /debug/vars (TestEngineSnapshotAggregates, TestProfileLabelsOnShardGoroutines)",
	"stream_finalize_millis":       "cmd/gpdserver TestStatsEndpoints (close-time Definitely rebuild latency)",
	"stream_finalize_work_total":   "cmd/gpdserver TestStatsEndpoints (stream.rebuilt_events)",
	"mux_steps_total":              "README multi-predicate recipe",
	"mux_steps_skipped_total":      "CI metrics grep; README multi-predicate recipe",
	"mux_registered_predicates":    "CI metrics grep; README multi-predicate recipe",
	"slice_compacted_events_total": "CI metrics grep; TestEngineSliceMetrics",
	"slice_retained_events":        "CI metrics grep; TestEngineSliceMetrics",
	"slo_breaches_total":           "the SLO watchdog's own output: slo_test.go, CI metrics grep, README SLO section",

	"runtime_heap_live_bytes":         "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_heap_objects":            "README runtime self-telemetry recipe",
	"runtime_alloc_bytes_total":       "bench/ alloc_bytes_per_event",
	"runtime_goroutines":              "CI metrics grep; cmd/gpdserver TestStatsEndpoints",
	"runtime_gc_cycles":               "bench/ server.gc_cycles",
	"runtime_gc_pause_p50_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_gc_pause_p99_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_gc_pause_max_nanos":      "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_sched_latency_p50_nanos": "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
	"runtime_sched_latency_p99_nanos": "bench/ server.sched_latency_p99_us",
	"runtime_sched_latency_max_nanos": "TestBindRuntimeMetrics; README runtime self-telemetry recipe",
}

// TestExportedSeriesSet drives a plain, a mux and a sliced session
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
	must(e.Open("plain", Spec{Pred: "all(x)", Procs: 2, Retain: true}))
	must(e.Open("sliced", Spec{Pred: "all(x)", Procs: 2, Slice: true}))
	must(e.Open("mux", Spec{Mux: true, Procs: 2}))
	_, err := e.Register("mux", RegisterSpec{ID: "p", Tenant: "acme", Pred: "sum(x) >= 2"})
	must(err)
	_, err = e.Register("mux", RegisterSpec{ID: "q", Tenant: "acme", Pred: "sum(y) >= 1"})
	must(err)
	for _, id := range []string{"plain", "sliced", "mux"} {
		must(e.Append(id, truth))
		_, err := e.Query(id)
		must(err)
	}
	must(e.Append("nobody", truth)) // shed: unknown session
	for _, id := range []string{"plain", "sliced", "mux"} {
		_, err := e.CloseSession(id)
		must(err)
	}

	snap := reg.Snapshot()
	got := map[string]bool{}
	for name := range snap.Counters {
		got[baseOf(name)] = true
	}
	for name := range snap.Gauges {
		got[baseOf(name)] = true
	}
	for name := range snap.Histograms {
		got[baseOf(name)] = true
	}
	for name := range got {
		if exportedSeries[name] == "" {
			t.Errorf("series %s is exported but names no consumer in exportedSeries", name)
		}
	}
	for name := range exportedSeries {
		if !got[name] {
			t.Errorf("series %s is in exportedSeries but the scripted run did not export it", name)
		}
	}

	// Deterministic counters of the script, and the Snapshot view of the
	// same stores.
	for name, want := range map[string]int64{
		`stream_events_total{shard="0"}`:      6,
		`stream_frames_total{shard="0"}`:      15, // 3 open, 2 register, 4 append, 3 query, 3 close
		`stream_shed_frames_total{shard="0"}`: 1,
		`stream_shed_events_total{shard="0"}`: 2,
		`stream_detections_total{shard="0"}`:  3, // every session latches (mux: on its first predicate)
		"mux_steps_total":                     2,
		"mux_steps_skipped_total":             2,
		"slice_compacted_events_total":        2,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	sh := e.Snapshot().Shards[0]
	if sh.Events != 6 || sh.Frames != 15 || sh.DroppedFrames != 1 || sh.DroppedEvents != 2 || sh.Detections != 3 || sh.Sessions != 0 ||
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
