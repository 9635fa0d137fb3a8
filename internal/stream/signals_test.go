package stream

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// Every signal surface is held to one rule: each signal the code emits
// names the consumer that reads it. A signal with no consumer is
// deleted, not listed; a new one names its reader here, and a reader
// named as a Test function must be one some _test.go file declares.
// /metrics has its table in series_test.go; the tables below cover the
// flight recorder, the SLO watchdog and the two JSON debug endpoints.

// flightStages is every lifecycle stage the engine records in the
// flight ring (/debug/flight, breach dumps).
var flightStages = map[string]string{
	"recv":       "TestSLOVerdictLatencyBreach (the offending frame's lifecycle); cmd/gpdserver TestMetricsEndpoint",
	"held":       "TestSLOHoldbackDepthBreach (under the frame that opened the episode)",
	"delivered":  "TestSLOVerdictLatencyBreach; TestSLOHoldbackDepthBreach (holdback drained: the Chrome holdback slice)",
	"update":     "TestSLOVerdictLatencyBreach",
	"verdict":    "TestSLOVerdictLatencyBreach",
	"shed":       "TestSLOShedFramesBreach (one record per shed frame)",
	"disconnect": "TestServerLifecycle",
}

// sloRuleConsumers is every rule of slo_breaches_total{rule=...}, each
// with the test that fires it through NewEngine.
var sloRuleConsumers = map[string]string{
	"verdict_latency":  "TestSLOVerdictLatencyBreach; cmd/gpdserver TestSLOBreachLoggedAndDumped",
	"holdback_depth":   "TestSLOHoldbackDepthBreach",
	"mailbox_depth":    "TestSLOMailboxDepthBreach",
	"shed_frames":      "TestSLOShedFramesBreach",
	"tenant_cpu_share": "TestTenantCPUShareSLO; TestTenantCPUShareSLOOnIngestAlone",
	"retained_events":  "TestEngineRetainedEventsSLO",
}

// debugVarsKeys is every JSON key of the /debug/vars Snapshot. The
// sessions[] rows are also the stats a query replies with, which is
// where bench/ reads them.
var debugVarsKeys = map[string]string{
	"shards":     "bench/ engine.queue_high_water, engine.dropped_frames",
	"sessions":   "TestEngineSnapshotAggregates; TestServe64ConcurrentSessions (no row left after close)",
	"events":     "cmd/gpdserver TestRunServesAndShutsDown; bench/ server.bytes_in_per_event",
	"dropped":    "TestSLOShedFramesBreach",
	"detections": "cmd/gpdserver TestRunServesAndShutsDown; TestEngineSnapshotAggregates",
	"predicates": "TestExportedSeriesSet; TestServeMultiPredicateSession (leak check)",
	"tenants":    "TestExportedSeriesSet; TestServeMultiPredicateSession (leak check)",

	"shards[].shard":            "TestEngineSnapshotAggregates",
	"shards[].sessions":         "TestEngineSnapshotAggregates; TestProfileLabelsOnShardGoroutines",
	"shards[].frames":           "TestExportedSeriesSet (one store with stream_frames_total)",
	"shards[].events":           "TestExportedSeriesSet (one store with stream_events_total)",
	"shards[].batches":          "TestExportedSeriesSet (one store with stream_batches_total)",
	"shards[].dropped_frames":   "TestExportedSeriesSet; bench/ engine.dropped_frames",
	"shards[].dropped_events":   "TestExportedSeriesSet (one store with stream_shed_events_total)",
	"shards[].queue_high_water": "TestEngineSnapshotAggregates; bench/ engine.queue_high_water",
	"shards[].detections":       "TestExportedSeriesSet (one store with stream_detections_total)",

	"sessions[].id":         "TestEngineSnapshotAggregates",
	"sessions[].kind":       "TestServeMultiPredicateSession",
	"sessions[].tenant":     "TestEngineSnapshotAggregates",
	"sessions[].shard":      "TestEngineSnapshotAggregates",
	"sessions[].ingested":   "TestEngineLifecycle",
	"sessions[].delivered":  "TestEngineLifecycle; bench/ delivery check",
	"sessions[].holdback":   "TestSLOHoldbackDepthBreach; bench/ delivery check",
	"sessions[].window":     "TestEngineSnapshotAggregates",
	"sessions[].flushes":    "bench/ flush economy (flushes per frame)",
	"sessions[].possibly":   "TestEngineLifecycle; bench/ verdict check",
	"sessions[].error":      "TestServerRejectsHugeStep",
	"sessions[].registered": "TestServeMultiPredicateSession; bench/ mux.active_share_end",
	"sessions[].active":     "bench/ mux.active_share_end",
	"sessions[].steps":      "bench/ mux steps per event",
	"sessions[].skipped":    "TestServeMultiPredicateSession",
}

// debugTenantsKeys is every JSON key of the /debug/tenants view.
var debugTenantsKeys = map[string]string{
	"total_cpu_nanos": "cmd/gpdserver TestTenantsEndpoint",
	"scopes":          "cmd/gpdserver TestTenantsEndpoint; bench/ server.bytes_in_per_event",
	"hot_predicates":  "cmd/gpdserver TestTenantsEndpoint",

	"scopes[].tenant":    "cmd/gpdserver TestTenantsEndpoint",
	"scopes[].family":    "cmd/gpdserver TestTenantsEndpoint",
	"scopes[].cpu_nanos": "TestLedgerScopes; the ?format=text CPU column",
	"scopes[].cpu_share": "TestLedgerScopes; the ?format=text SHARE column",
	"scopes[].steps":     "cmd/gpdserver TestTenantsEndpoint",
	"scopes[].events":    "cmd/gpdserver TestTenantsEndpoint",
	"scopes[].bytes_in":  "TestWireBytesChargedPerFrame; bench/ server.bytes_in_per_event",
	"scopes[].bytes_out": "TestWireBytesChargedPerFrame",

	"hot_predicates[].id":     "cmd/gpdserver TestTenantsEndpoint",
	"hot_predicates[].tenant": "cmd/gpdserver TestTenantsEndpoint",
	"hot_predicates[].family": "cmd/gpdserver TestTenantsEndpoint",
	"hot_predicates[].steps":  "cmd/gpdserver TestTenantsEndpoint",
}

// TestSignalConsumers checks the four tables above against what the
// code emits: the stages and rules of a scripted engine run, and the
// JSON tags of the types the debug endpoints encode.
func TestSignalConsumers(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlight(256)
	e := NewEngine(Config{Shards: 1, Metrics: reg, Flight: flight})
	defer e.Shutdown()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Process 0's second event before its first (held, then delivered),
	// true events on both processes (verdict), a query whose batch ends in
	// the appended session's flush (update), a frame for no session (shed)
	// and a close (disconnect).
	must(e.Open("s", Spec{Pred: "all(x)", Procs: 2}))
	must(e.Append("s", []Event{{Proc: 0, VC: []int64{2, 0}, Truth: true}}))
	must(e.Append("s", []Event{{Proc: 0, VC: []int64{1, 0}}, {Proc: 1, VC: []int64{0, 1}, Truth: true}}))
	_, _, err := e.QueryUpdates("s")
	must(err)
	must(e.Append("nobody", []Event{{Proc: 0, VC: []int64{1, 0}}}))
	_, _, err = e.ClosePredicates("s")
	must(err)

	var stages []string
	for _, r := range flight.Snapshot() {
		stages = append(stages, string(r.Stage))
	}
	var rules []string
	for name := range reg.Snapshot().Counters {
		if rule, ok := strings.CutPrefix(name, `slo_breaches_total{rule="`); ok {
			rules = append(rules, strings.TrimSuffix(rule, `"}`))
		}
	}
	checkConsumers(t, "flight stage", stages, flightStages)
	checkConsumers(t, "SLO rule", rules, sloRuleConsumers)
	checkConsumers(t, "/debug/vars key", jsonKeys(reflect.TypeOf(Snapshot{}), ""), debugVarsKeys)
	checkConsumers(t, "/debug/tenants key", jsonKeys(reflect.TypeOf(obs.LedgerSnapshot{}), ""), debugTenantsKeys)
}

// checkConsumers is the one check every signal table goes through: the
// emitted signals must be exactly the table's keys, and every Test
// function a consumer names must be declared in some _test.go file.
func checkConsumers(t *testing.T, surface string, emitted []string, table map[string]string) {
	t.Helper()
	got := map[string]bool{}
	for _, name := range emitted {
		if !got[name] && table[name] == "" {
			t.Errorf("%s %s is emitted but names no consumer", surface, name)
		}
		got[name] = true
	}
	declared, err := declaredTests()
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\bTest\w+`)
	for name, consumer := range table {
		if !got[name] {
			t.Errorf("%s %s is listed but not emitted", surface, name)
		}
		for _, test := range named.FindAllString(consumer, -1) {
			if !declared[test] {
				t.Errorf("%s %s names consumer %s, which no _test.go file declares", surface, name, test)
			}
		}
	}
}

// jsonKeys lists the JSON keys of a struct type as encoding/json writes
// them, descending into slices of structs as "name[].key".
func jsonKeys(typ reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		keys = append(keys, prefix+name)
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			keys = append(keys, jsonKeys(f.Type.Elem(), prefix+name+"[].")...)
		}
	}
	return keys
}

// declaredTests is the set of Test functions the module's _test.go
// files declare, walked once per test binary.
var declaredTests = sync.OnceValues(func() (map[string]bool, error) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(text), -1) {
			declared[m[1]] = true
		}
		return err
	})
	return declared, err
})
