// Command gpdbench regenerates the reproduction tables of EXPERIMENTS.md:
// one per figure and formal claim of Mittal & Garg (ICDCS 2001).
//
// Usage:
//
//	gpdbench                        # run every experiment
//	gpdbench -run E3                # run one experiment by id (F1..F3, E1..E7)
//	gpdbench -list                  # list experiment ids
//	gpdbench -report                # trace a detection workload, print its work report
//	gpdbench -obs-baseline out.json # measure instrumentation overhead on stream ingest
//	gpdbench -parallel-speedup      # time the lattice kernel sequential vs parallel
//	gpdbench -slice-compression     # slice vs lattice: state compression and detection speedup
//
// -report runs every detector family through gpd.Detect on a simulated
// token-ring trace with a shared trace and prints the accumulated work
// report (spans, counters, notes). -obs-baseline replays the
// BenchmarkStreamIngest workload twice — metrics registry off, then on —
// and writes a JSON baseline recording the throughput of both runs and
// the relative overhead; CI tracks the committed BENCH_obs.json against
// the < 5% budget. -parallel-speedup times the level-set BFS sweep (the
// worst-case kernel every exponential route funnels through) at one
// worker and at -par-cores workers, checks the verdicts are identical,
// and prints the speedup, warning when a multi-core host gains less
// than 1.5x. -slice-compression reproduces the slicing paper's central
// economics on random conjunctive workloads: the number of consistent
// cuts in the full lattice versus in the predicate's slice (the state
// compression), and the time of a full lattice sweep versus slice
// construction (the detection speedup).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"runtime"
	"strings"
	"time"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/experiments"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/slicing"
	"github.com/distributed-predicates/gpd/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpdbench", flag.ContinueOnError)
	runID := fs.String("run", "", "run only the experiment with this id (e.g. E3)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	report := fs.Bool("report", false, "trace one detection per family and print the work report")
	obsBaseline := fs.String("obs-baseline", "", "measure instrumentation overhead on stream ingest and write a JSON baseline to this file (- for stdout)")
	obsEvents := fs.Int("obs-events", 1<<18, "events per ingest measurement for -obs-baseline")
	parSpeedup := fs.Bool("parallel-speedup", false, "time the lattice kernel at 1 worker vs -par-cores workers and print the speedup")
	parCores := fs.Int("par-cores", 4, "worker count for -parallel-speedup")
	sliceComp := fs.Bool("slice-compression", false, "measure slice-vs-lattice state compression and detection speedup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parSpeedup {
		return parallelSpeedup(stdout, *parCores)
	}
	if *sliceComp {
		return sliceCompression(stdout)
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}
	if *report {
		return workReport(stdout)
	}
	if *obsBaseline != "" {
		return obsBaselineRun(stdout, *obsBaseline, *obsEvents)
	}
	if *runID != "" {
		r := experiments.Get(*runID)
		if r == nil {
			var ids []string
			for _, rr := range experiments.All() {
				ids = append(ids, rr.ID)
			}
			return fmt.Errorf("unknown experiment %q (known: %s)", *runID, strings.Join(ids, ", "))
		}
		fmt.Fprintln(stdout, r.Run().String())
		return nil
	}
	for _, r := range experiments.All() {
		fmt.Fprintln(stdout, r.Run().String())
	}
	return nil
}

// workReport runs one detection per family (and both modalities where the
// family supports them) on a simulated token-ring trace, all sharing one
// trace, and prints the verdicts followed by the accumulated work report.
func workReport(w io.Writer) error {
	sim := gpd.NewSimulator(7, gpd.NewTokenRingProcs(6, 3, 1, 4))
	c, err := sim.Run()
	if err != nil {
		return err
	}
	tr := gpd.NewTrace()
	runs := []struct {
		pred     string
		modality gpd.Modality
	}{
		{"all(tokens)", gpd.ModalityPossibly},
		{"all(tokens)", gpd.ModalityDefinitely},
		{"sum(tokens) == 3", gpd.ModalityPossibly},
		{"sum(tokens) >= 1", gpd.ModalityDefinitely},
		{"count(tokens) >= 1", gpd.ModalityPossibly},
		{"xor(tokens)", gpd.ModalityPossibly},
		{"levels(tokens): 0, 3", gpd.ModalityPossibly},
		{"inflight >= 1", gpd.ModalityPossibly},
		{"cnf(tokens): (0 | 1) & (2 | 3)", gpd.ModalityPossibly},
		{"equilevel(tokens): 3", gpd.ModalityPossibly},
		{"equilevel(tokens): 0", gpd.ModalityDefinitely},
	}
	for _, r := range runs {
		spec, err := gpd.ParseSpec(r.pred)
		if err != nil {
			return err
		}
		rep, err := gpd.Detect(c, spec, gpd.WithModality(r.modality), gpd.WithTrace(tr))
		if err != nil {
			return err
		}
		modality := "Possibly"
		if r.modality == gpd.ModalityDefinitely {
			modality = "Definitely"
		}
		fmt.Fprintf(w, "%s(%s) = %v\n", modality, spec, rep.Holds)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, tr.Report())
	return nil
}

// parallelSpeedup times the parallel lattice kernel — the level-set BFS
// behind every exponential detection route — on a message-dense random
// computation with an unsatisfiable predicate (so the sweep visits the
// whole lattice), at one worker and at `cores` workers, best of three
// each. The verdicts must agree (the kernels are bit-identical by
// construction; this is the smoke check), and on a host with at least
// `cores` schedulable CPUs a speedup below 1.5x earns a WARN line: the
// kernel has stopped scaling and cmd/gpdbench's report numbers are
// suspect. The warning is advisory — single-core CI hosts cannot
// demonstrate a speedup, so the exit status stays zero.
func parallelSpeedup(w io.Writer, cores int) error {
	if cores < 2 {
		return fmt.Errorf("-par-cores must be at least 2, got %d", cores)
	}
	c := gen.Random(gen.Params{Seed: 42, Procs: 7, Events: 5, MsgFrac: 0.3})
	gen.UnitStepVar(43, c, "x")
	pred := func(cc *computation.Computation, k computation.Cut) bool {
		return cc.SumVar("x", k) >= 1000 // unreachable: forces a full sweep
	}
	const rounds = 3
	best := func(workers int) (time.Duration, bool) {
		verdict := false
		elapsed := time.Duration(0)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			verdict = lattice.DefinitelyPar(c, pred, workers, nil)
			if d := time.Since(start); i == 0 || d < elapsed {
				elapsed = d
			}
		}
		return elapsed, verdict
	}
	seqTime, seqVerdict := best(1)
	parTime, parVerdict := best(cores)
	if seqVerdict != parVerdict {
		return fmt.Errorf("parallel kernel diverged: sequential %v, par=%d %v", seqVerdict, cores, parVerdict)
	}
	speedup := float64(seqTime) / float64(parTime)
	fmt.Fprintf(w, "lattice kernel: sequential %v, par=%d %v, speedup %.2fx (GOMAXPROCS %d)\n",
		seqTime, cores, parTime, speedup, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) >= cores && speedup < 1.5 {
		fmt.Fprintf(w, "WARN: parallel speedup %.2fx below 1.5x at %d workers on a %d-CPU host\n",
			speedup, cores, runtime.GOMAXPROCS(0))
	}
	return nil
}

// trueOracle admits every consistent cut, so its slice is the whole
// computation and Count enumerates the full lattice — the denominator of
// the compression ratio, counted in polynomial time via Birkhoff duality
// instead of by sweeping.
type trueOracle struct{}

func (trueOracle) Holds(*computation.Computation, computation.Cut) bool                   { return true }
func (trueOracle) Forbidden(*computation.Computation, computation.Cut) computation.ProcID { return 0 }

// sliceCompression reproduces the central economics of computation
// slicing on random conjunctive workloads: how many consistent cuts the
// full lattice holds versus how many survive in the predicate's slice,
// and how a full lattice sweep compares in time against building the
// slice and reading the verdict off it. Truth density is kept low enough
// that the slice is a thin sublattice — the regime the paper's speedup
// claim lives in.
func sliceCompression(w io.Writer) error {
	fmt.Fprintln(w, "slice vs lattice (conjunctive all(x), random computations, truth density 0.4)")
	fmt.Fprintf(w, "%-6s %-7s %-14s %-12s %-12s %-13s %-12s %s\n",
		"procs", "events", "lattice-cuts", "slice-cuts", "compression", "lattice-sweep", "slice-build", "speedup")
	for _, sz := range []struct{ procs, events int }{{4, 5}, {5, 6}, {6, 7}} {
		c := gen.Random(gen.Params{Seed: int64(2000 + sz.procs), Procs: sz.procs, Events: sz.events, MsgFrac: 0.4})
		tabs := gen.BoolTables(int64(2100+sz.procs), c, 0.4)
		locals := make(map[computation.ProcID]func(computation.Event) bool)
		for p, row := range tabs {
			row := row
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return e.Index < len(row) && row[e.Index]
			}
		}
		o := slicing.ConjunctiveOracle(locals)

		all, err := slicing.Compute(c, trueOracle{})
		if err != nil {
			return err
		}
		latticeCuts := all.Count(trueOracle{})

		sliceCuts := "0"
		buildStart := time.Now()
		s, err := slicing.Compute(c, o)
		build := time.Since(buildStart)
		switch {
		case err == nil:
			sliceCuts = s.Count(o).String()
		case errors.Is(err, slicing.ErrEmpty):
			// Empty slice: the predicate never holds; detection is done.
		default:
			return err
		}

		sweepStart := time.Now()
		found := false
		all.Ideals(trueOracle{}, func(k computation.Cut) bool {
			if o.Holds(c, k) {
				found = true
				return false
			}
			return true
		})
		sweep := time.Since(sweepStart)
		if found != (err == nil) {
			return fmt.Errorf("slice route disagrees with the lattice sweep: sweep %v, slice %v", found, err == nil)
		}

		compression := new(big.Float).SetInt(latticeCuts)
		if sc, ok := new(big.Float).SetString(sliceCuts); ok && sc.Sign() > 0 {
			compression.Quo(compression, sc)
		}
		speedup := float64(sweep) / float64(build)
		fmt.Fprintf(w, "%-6d %-7d %-14s %-12s %-12s %-13v %-12v %.1fx\n",
			sz.procs, c.NumEvents(), latticeCuts.String(), sliceCuts,
			compression.Text('f', 1)+"x", sweep.Round(time.Microsecond), build.Round(time.Microsecond), speedup)
	}
	return nil
}

// obsBaseline is the JSON shape of BENCH_obs.json.
type obsBaselineOut struct {
	Benchmark        string  `json:"benchmark"`
	Events           int     `json:"events"`
	Rounds           int     `json:"rounds"`
	BaselineEvtSec   float64 `json:"baseline_events_per_sec"`
	MeteredEvtSec    float64 `json:"instrumented_events_per_sec"`
	OverheadPct      float64 `json:"overhead_pct"`
	OverheadBudgeted float64 `json:"overhead_budget_pct"`
}

// obsBaselineRun measures stream ingest throughput with the metrics
// registry off and on, writes the JSON baseline, and fails when the
// overhead exceeds the budget so CI can gate on the committed file.
func obsBaselineRun(stdout io.Writer, path string, events int) error {
	const rounds = 3
	base, err := bestIngest(nil, events, rounds)
	if err != nil {
		return err
	}
	metered, err := bestIngest(obs.NewRegistry(), events, rounds)
	if err != nil {
		return err
	}
	out := obsBaselineOut{
		Benchmark:        "BenchmarkStreamIngest",
		Events:           events,
		Rounds:           rounds,
		BaselineEvtSec:   base,
		MeteredEvtSec:    metered,
		OverheadPct:      100 * (base - metered) / base,
		OverheadBudgeted: 5,
	}
	var w io.Writer = stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(stdout, "baseline %.0f ev/s, instrumented %.0f ev/s, overhead %.2f%% (budget %.0f%%) -> %s\n",
			out.BaselineEvtSec, out.MeteredEvtSec, out.OverheadPct, out.OverheadBudgeted, path)
	}
	if out.OverheadPct > out.OverheadBudgeted {
		return fmt.Errorf("instrumentation overhead %.2f%% exceeds %.0f%% budget", out.OverheadPct, out.OverheadBudgeted)
	}
	return nil
}

// bestIngest runs the ingest workload `rounds` times against a fresh
// engine and returns the best observed throughput, the conventional way
// to compare two configurations on a noisy host.
func bestIngest(metrics *obs.Registry, events, rounds int) (float64, error) {
	best := 0.0
	for i := 0; i < rounds; i++ {
		got, err := ingestOnce(metrics, events)
		if err != nil {
			return 0, err
		}
		if got > best {
			best = got
		}
	}
	return best, nil
}

// ingestOnce replays the BenchmarkStreamIngest workload — one SumEq
// session per shard, in-order unit-step streams, batched appends,
// Backpressure policy — and returns events/sec. The instrumented
// configuration carries the full observability stack: the metrics
// registry, the flight recorder, the cost ledger and pprof profile
// labels, so the committed overhead number reflects what a production
// server actually pays.
func ingestOnce(metrics *obs.Registry, events int) (float64, error) {
	const (
		procs    = 8
		batch    = 64
		sessions = 4
	)
	cfg := stream.Config{Shards: 4, QueueLen: 256, BatchSize: 64, Metrics: metrics}
	if metrics != nil {
		cfg.Flight = obs.NewFlight(4096)
		cfg.Ledger = obs.NewLedger()
		cfg.ProfileLabels = true
	}
	eng := stream.NewEngine(cfg)
	defer eng.Shutdown()

	type source struct {
		vcs  [][]int64
		step int
	}
	srcs := make([]*source, sessions)
	ids := make([]string, sessions)
	for s := range srcs {
		src := &source{vcs: make([][]int64, procs)}
		for p := range src.vcs {
			src.vcs[p] = make([]int64, procs)
		}
		srcs[s] = src
		ids[s] = fmt.Sprintf("bench-%d", s)
		if err := eng.Open(ids[s], stream.Spec{Pred: "sum(x) == -1", Procs: procs}); err != nil {
			return 0, err
		}
	}
	next := func(src *source, out []stream.Event) []stream.Event {
		for i := 0; i < batch; i++ {
			p := src.step % procs
			src.vcs[p][p]++
			if src.step%7 == 0 {
				q := (p + 1) % procs
				for r := 0; r < procs; r++ {
					if src.vcs[q][r] > src.vcs[p][r] {
						src.vcs[p][r] = src.vcs[q][r]
					}
				}
			}
			out = append(out, stream.Event{
				Proc: p,
				VC:   append([]int64(nil), src.vcs[p]...),
				Val:  int64(src.step % 2),
			})
			src.step++
		}
		return out
	}

	start := time.Now()
	sent := 0
	for i := 0; sent < events; i++ {
		s := i % sessions
		evs := next(srcs[s], make([]stream.Event, 0, batch))
		if err := eng.Append(ids[s], evs); err != nil {
			return 0, err
		}
		sent += len(evs)
	}
	for _, id := range ids { // drain the mailboxes before stopping the clock
		if _, err := eng.Query(id); err != nil {
			return 0, err
		}
	}
	return float64(sent) / time.Since(start).Seconds(), nil
}
