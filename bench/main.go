// Command bench is the repository's benchmark: one command that builds
// cmd/gpdserver, generates every input from -seed, drives the real server
// binary over loopback from this single process with two connections,
// checks every verdict against gpd.Detect, and prints every metric by
// name with its unit. See README.md in this directory for the metric and
// workload definitions; BENCHMARK.json at the repository root is
// generated from the tables in this file (go run . -manifest).
//
//	bash bench/run.sh --workload ingest_wire --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -workload all -seed 1
//	cd bench && go run . -compare out/agreement/setA.jsonl out/agreement/setB.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runSeconds is the measurement length BENCHMARK.json asks the driver to
// pass as --seconds; segment sizes below are tuned to it.
const runSeconds = 20

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"ingest_wire", "closed loop, 2 conns x 1 session, never-latching sum(x)==k, 8 procs, in-order 64-event frames, query every 16, 131072-event segments: wire decode, TCP, mailbox carry the load; mux and slicer idle"},
	{"verdict_scrambled", "open loop, one 8-event frame per conn per 2 ms; seeded 16x16 gen.Random sessions sent process by process, specs rotate all+retain, all+slice, sum, levels, inflight: holdback, per-frame flush"},
	{"mux_fanout", "closed loop, 2 conns x 1 mux session, 8 procs, 16 vars, 1024 predicates, 4 tenants, 5 families, 32-event frames, re-register every 64th, 4096-event segments: routing, projection, detector flush"},
	{"batch_sweep", "no server: gpd.Detect on seeded gen computations at 8x32, 16x64, 32x128 for every polynomial cell, plus replay, slice, 1 vs 2 workers, a 6x6 lattice cell: batch kernels only; serving must not move it"},
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the driver's contract), so each is defined
// on all four; the README gives the per-workload reading. The bounds are
// as wide as they are because this sandbox's CPU speed drifts 15-20%
// between runs (README, "Bounds"); allocation alone is quiet.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"alloc_bytes_per_event", "B", "lower", 0.15},
	{"verdict_ms_p50", "ms", "lower", 0.25},
	{"verdict_ms_p90", "ms", "lower", 0.25},
}

var onlineFamilies = []string{"conjunctive", "sum", "count", "xor", "levels", "inflight"}

var batchCells = []string{"all", "sum_eq", "sum_ge", "count", "xor", "levels", "inflight", "equilevel", "cnf", "def_all"}

// perLayer are the traced run's metrics, layer names being module names.
// A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	add("wire.decode_request_ns_per_event", "ns", "lower")
	add("wire.decode_request_allocs_per_event", "count", "lower")
	add("wire.encode_request_ns_per_event", "ns", "lower")
	add("wire.request_bytes_per_event", "B", "lower")
	add("wire.encode_response_ns_per_frame", "ns", "lower")
	add("wire.decode_response_ns_per_frame", "ns", "lower")
	add("server.residual_us_per_event", "us", "lower")
	add("server.residual_share", "%", "lower")
	add("server.rss_peak_mb", "MB", "lower")
	add("server.gc_cycles", "count", "lower")
	add("server.sched_latency_p99_us", "us", "lower")
	add("server.bytes_in_per_event", "B", "lower")
	add("engine.ns_per_event", "ns", "lower")
	add("engine.self_ns_per_event", "ns", "lower")
	add("engine.allocs_per_event", "count", "lower")
	add("engine.frames_per_flush", "count", "higher")
	add("engine.queue_high_water", "count", "lower")
	add("engine.dropped_frames", "count", "lower")
	add("session.ns_per_event", "ns", "lower")
	add("session.self_ns_per_event", "ns", "lower")
	add("session.finalize_ms_p50", "ms", "lower")
	add("session.retained_events_peak", "count", "lower")
	add("mux.delivery_ns_per_event", "ns", "lower")
	add("mux.held_share", "%", "lower")
	add("mux.holdback_peak", "count", "lower")
	add("mux.group_ns_per_event", "ns", "lower")
	add("mux.self_ns_per_event", "ns", "lower")
	add("mux.steps_per_event", "count", "lower")
	add("mux.skipped_per_event", "count", "higher")
	add("mux.active_share_end", "%", "higher")
	add("mux.register_us", "us", "lower")
	add("mux.unregister_us", "us", "lower")
	for _, f := range onlineFamilies {
		add("detect."+f+".step_ns_per_event", "ns", "lower")
		add("detect."+f+".flush_us_per_flush", "us", "lower")
		add("detect."+f+".window_peak", "count", "lower")
	}
	add("slicing.observe_ns_per_event", "ns", "lower")
	add("slicing.compact_us_per_call", "us", "lower")
	add("slicing.retained_peak", "count", "lower")
	add("slicing.compacted_share", "%", "higher")
	add("slicing.offline_compute_ms", "ms", "lower")
	for _, c := range batchCells {
		add("batch."+c+".ns_per_event", "ns", "lower")
		add("batch."+c+".work_per_event", "count", "lower")
		add("batch."+c+".exponent", "count", "lower")
	}
	add("batch.sweep_s", "s", "lower")
	add("batch.work_total", "count", "lower")
	add("batch.replay_ratio", "count", "lower")
	add("batch.slice_ratio", "count", "lower")
	add("lattice.cuts_per_s", "1/s", "higher")
	add("par.speedup_2", "count", "higher")
	add("par.work_ratio", "count", "lower")
	add("obs.engine_overhead_share", "%", "lower")
	add("obs.flight_records_per_event", "count", "lower")
	add("client.max_late_ms", "ms", "lower")
	add("client.late_share", "%", "lower")
	add("client.cpu_us_per_event", "us", "lower")
	add("client.trace_overhead_share", "%", "lower")
	add("client.append_ms_p50", "ms", "lower")
	add("client.append_ms_p99", "ms", "lower")
	add("client.verdict_ms_p99", "ms", "lower")
	add("client.close_ms_p50", "ms", "lower")
	add("client.register_ms_p50", "ms", "lower")
	return out
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerDef, len(perLayer))
	for i, m := range perLayer {
		pl[i] = perLayerDef{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   pl,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers cannot fail to encode
	}
	return append(b, '\n')
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// options are the flags one workload run needs.
type options struct {
	root    string // repository root (holds cmd/gpdserver)
	seed    int64
	seconds float64
	scale   float64 // shrinks segment sizes; tests only
	trace   bool
	outDir  string // where trace-<workload>.json goes
	log     io.Writer
}

// setups is how often the run sets up: several times for the median
// setup_s reports, once where that metric is not reported (traced runs)
// or not meaningful (shrunken smoke runs).
func (o options) setups() int {
	if o.trace || o.scale < 1 {
		return 1
	}
	return setupRepeats
}

// report carries what a workload measured: values keyed by metric name
// and the sample count behind each, plus the operation tally.
type report struct {
	values    map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64
	failures  []string // first few, for the log
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// merge adds another goroutine's tally into this one.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

// fail counts one failed operation and keeps the first few messages.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for every generator")
	seconds := fs.Float64("seconds", runSeconds, "measurement length per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	scale := fs.Float64("scale", 1, "shrink segment sizes (smoke tests)")
	recordTo := fs.String("record", "", "append each result as a JSON line to this file")
	outDir := fs.String("out", "", "directory for trace-<workload>.json (default bench/out)")
	compare := fs.Bool("compare", false, "compare two -record files: bench -compare old.jsonl new.jsonl")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		stdout.Write(manifest())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	code := 0
	for _, name := range names {
		opt := options{root: root, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, outDir: *outDir, log: stderr}
		res, err := runWorkload(ctx, name, opt, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s (seed %d): %v\n", name, *seed, err)
			return 1
		}
		if *recordTo != "" {
			if err := appendRecord(*recordTo, record{name, *seed, int(*seconds), *trace, res}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload under its timeout and turns the report
// into the contract's result, printing the human-readable table first.
func runWorkload(ctx context.Context, name string, opt options, stdout io.Writer) (result, error) {
	// Three set-ups, warm-up, the measured run, and (traced) the in-process
	// layer replays all fit well inside this; past it something is stuck.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(opt.seconds*3)*time.Second+90*time.Second)
	defer cancel()
	var rep *report
	var err error
	if name == "batch_sweep" {
		rep, err = runBatch(ctx, opt)
	} else {
		rep, err = runOnline(ctx, name, opt)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v\n", name, opt.seed, opt.seconds, opt.trace)
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && !opt.trace {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-44s %16.6g %-6s n=%d\n", d.Name, v, d.Unit, rep.samples[d.Name])
	}
	var extra []string
	for k := range rep.values {
		if _, listed := res.Metrics[k]; !listed {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra { // informational values outside the manifest (the other run mode's metrics)
		fmt.Fprintf(stdout, "%-44s %16.6g %-6s n=%d (info)\n", k, rep.values[k], "", rep.samples[k])
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "%-44s %16.6g %-6s failed=%d attempted=%d\n", "failed_share", share, "", rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "FAILED seed=%d %s\n", opt.seed, f)
	}
	if rep.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRoot locates the repository root — the directory holding
// cmd/gpdserver — from the working directory (the root itself under the
// driver, bench/ under go run).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gpdserver", "main.go")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("cmd/gpdserver not found: run from the repository root or from bench/")
}
