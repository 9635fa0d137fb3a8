// Command gpddetect runs a predicate detector against a JSON trace read
// from a file or stdin.
//
// Usage:
//
//	gpddetect -trace ring.json -pred 'sum(tokens) == 2'
//	gpddetect -trace ring.json -pred 'sum(tokens) >= 1' -modality definitely
//	gpddetect -trace mutex.json -pred 'count(cs) >= 2'
//	gpddetect -trace votes.json -pred 'xor(yes)'
//	gpddetect -trace t.json -pred 'cnf(flag): (0 | !1) & (2 | 3)' -strategy auto
//	gpddetect -trace ring.json -pred 'levels(tokens): 0, 2' -report
//
// The predicate grammar is the one shared by every surface of the
// library (gpd.ParseSpec):
//
//	all(<var>)                  conjunction of the 0/1 variable
//	sum(<var>) <relop> <k>      relational sum predicate
//	count(<var>) <relop> <k>    symmetric predicate on a 0/1 variable
//	xor(<var>)                  exclusive-or of the 0/1 variable
//	levels(<var>): m1, m2, ...  symmetric predicate by level set
//	inflight <relop> <k>        messages in flight
//	cnf(<var>): <clauses>       singular CNF over the 0/1 variable, with
//	                            per-process literals "3" or "!3" joined by
//	                            | within clauses and & between clauses
//	equilevel(<var>): <L>       all(var) restricted to consistent cuts at
//	                            level L (exactly L non-initial events)
//
// -replay decides the predicate by driving the family's incremental
// detector — the state machine gpdserver runs — over a causal
// linearization of the trace instead of the batch algorithm, which makes
// the CLI a cross-checking harness for the two routes. -slice decides it
// by building the predicate's computation slice (regular predicates
// only: conjunctive, and channel quiescence inflight == 0) — a third
// independently derived route over the same trace. -report appends
// the run's work accounting (timed spans and per-phase work counters) to
// the verdict. -flight writes the same span tree as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing),
// the format the gpdserver flight recorder also exports — an offline
// run and a server flight dump open in the same UI.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	gpd "github.com/distributed-predicates/gpd"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpddetect:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpddetect", flag.ContinueOnError)
	trace := fs.String("trace", "-", "trace file (- for stdin)")
	predText := fs.String("pred", "", "predicate (see package comment)")
	modality := fs.String("modality", "possibly", "possibly or definitely")
	strategy := fs.String("strategy", "auto", "singular strategy: auto, receive-ordered, send-ordered, subsets, chains")
	replay := fs.Bool("replay", false, "decide via the incremental detector replayed over the trace (cross-checkable against the default batch route)")
	slice := fs.Bool("slice", false, "decide via the computation slice (regular predicates only; cross-checkable against the default batch route)")
	report := fs.Bool("report", false, "print the run's work counters and timed spans")
	par := fs.Int("par", 0, "worker pool size for the batch kernels (0 = GOMAXPROCS, 1 = sequential)")
	flight := fs.String("flight", "", "write the run's span tree as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *predText == "" {
		return errors.New("missing -pred")
	}
	spec, err := gpd.ParseSpec(*predText)
	if err != nil {
		return err
	}
	mod, err := gpd.ParseModality(*modality)
	if err != nil {
		return err
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	strategySet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "strategy" {
			strategySet = true
		}
	})

	var r io.Reader = stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	c, err := gpd.ReadTrace(r)
	if err != nil {
		return fmt.Errorf("read trace: %w", err)
	}

	opts := []gpd.Option{gpd.WithModality(mod), gpd.WithParallelism(*par)}
	if *replay && *slice {
		return errors.New("-replay and -slice are mutually exclusive")
	}
	if *replay {
		opts = append(opts, gpd.WithStrategy(gpd.StrategyReplay))
	}
	if *slice {
		opts = append(opts, gpd.WithStrategy(gpd.StrategySlice))
	}
	if strategySet {
		// Detect rejects the option for non-cnf predicates and under
		// definitely, instead of silently ignoring it like the old CLI.
		opts = append(opts, gpd.WithStrategy(strat))
	}
	rep, err := gpd.Detect(c, spec, opts...)
	if err != nil {
		return err
	}
	printReport(stdout, rep, *report)
	if *flight != "" {
		if err := writeFlight(*flight, rep.Work); err != nil {
			return fmt.Errorf("write flight trace: %w", err)
		}
	}
	return nil
}

// writeFlight exports the run's span tree as Chrome trace-event JSON.
func writeFlight(path string, work gpd.Work) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = work.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printReport renders a detection report in the CLI's historical output
// format: one verdict line, a witness line when a cut was constructed,
// and optionally the work accounting.
func printReport(w io.Writer, rep gpd.Report, withWork bool) {
	mod := "Possibly"
	if rep.Modality == gpd.ModalityDefinitely {
		mod = "Definitely"
	}
	fmt.Fprintf(w, "%s(%s) = %v", mod, rep.Spec, rep.Holds)
	switch {
	case rep.Spec.Family == gpd.FamilyCNF && rep.Modality == gpd.ModalityPossibly:
		fmt.Fprintf(w, " (strategy %v, %d combination(s))", rep.Strategy, rep.Combinations)
	case rep.HasRange:
		fmt.Fprintf(w, " (range [%d,%d])", rep.Min, rep.Max)
	}
	fmt.Fprintln(w)
	if rep.Holds && rep.Witness != nil {
		fmt.Fprintf(w, "witness cut: %v\n", rep.Witness)
	}
	if withWork {
		fmt.Fprint(w, rep.Work)
	}
}

func parseStrategy(s string) (gpd.SingularStrategy, error) {
	switch s {
	case "auto":
		return gpd.StrategyAuto, nil
	case "receive-ordered":
		return gpd.StrategyReceiveOrdered, nil
	case "send-ordered":
		return gpd.StrategySendOrdered, nil
	case "subsets":
		return gpd.StrategyProcessSubsets, nil
	case "chains":
		return gpd.StrategyChainCover, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}
