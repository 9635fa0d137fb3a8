// Command gpdbench regenerates the reproduction tables of EXPERIMENTS.md:
// one per figure and formal claim of Mittal & Garg (ICDCS 2001).
//
// Usage:
//
//	gpdbench                        # run every experiment
//	gpdbench -run E3                # run one experiment by id (F1..F3, E1..E7)
//	gpdbench -list                  # list experiment ids
//	gpdbench -report                # trace a detection workload, print its work report
//	gpdbench -slice-compression     # slice vs lattice: state compression and detection speedup
//
// -report runs every detector family through gpd.Detect on a simulated
// token-ring trace with a shared trace and prints the accumulated work
// report (spans, counters, notes). -slice-compression reproduces the
// slicing paper's central economics on random conjunctive workloads: the
// number of consistent cuts in the full lattice versus in the predicate's
// slice (the state compression), and the time of a full lattice sweep
// versus slice construction (the detection speedup). Speed itself —
// instrumentation overhead, parallel speedup — is measured by the
// repository benchmark in bench/ (obs.engine_overhead_share,
// par.speedup_2, par.work_ratio).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/experiments"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/slicing"
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
	sliceComp := fs.Bool("slice-compression", false, "measure slice-vs-lattice state compression and detection speedup")
	if err := fs.Parse(args); err != nil {
		return err
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

		// The empty conjunction admits every consistent cut, so its slice
		// is the whole computation and Count enumerates the full lattice —
		// the denominator of the compression ratio, counted via Birkhoff
		// duality instead of by sweeping.
		everyCut := slicing.ConjunctiveOracle(nil)
		all, err := slicing.Compute(c, everyCut)
		if err != nil {
			return err
		}
		latticeCuts := all.Count(everyCut)

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
		all.Ideals(everyCut, func(k computation.Cut) bool {
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
