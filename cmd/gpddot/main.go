// Command gpddot renders a JSON computation trace as a Graphviz digraph,
// optionally highlighting a witness cut found by one of the detectors.
//
// Usage:
//
//	gpddot -trace ring.json > ring.dot
//	gpddot -trace ring.json -vars tokens -pred 'sum(tokens) == 1' > witness.dot
//	dot -Tsvg ring.dot > ring.svg
//
// With -pred (gpddetect's predicate syntax; the witness-constructing
// forms, e.g. sum(v) == k or count(v) relop k), the witness cut's frontier
// is drawn bold and its interior shaded; true events of the named variable
// are double-circled.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpddot:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpddot", flag.ContinueOnError)
	trace := fs.String("trace", "-", "trace file (- for stdin)")
	vars := fs.String("vars", "", "comma-separated variable names to annotate")
	pred := fs.String("pred", "", "optional predicate whose witness cut to highlight")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
		return err
	}
	opts := computation.DOTOptions{}
	if *vars != "" {
		opts.ShowVars = strings.Split(*vars, ",")
		name := opts.ShowVars[0]
		opts.TrueEvents = func(e gpd.Event) bool { return c.Var(name, e.ID) != 0 }
	}
	if *pred != "" {
		cut, err := witnessCut(c, *pred)
		if err != nil {
			return err
		}
		opts.Highlight = cut
	}
	return computation.WriteDOT(stdout, c, opts)
}

// witnessCut detects Possibly(pred) and returns the witness cut the
// detector constructed.
func witnessCut(c *gpd.Computation, pred string) (gpd.Cut, error) {
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		return nil, err
	}
	rep, err := gpd.Detect(c, spec)
	if err != nil {
		return nil, err
	}
	if rep.Witness == nil {
		return nil, fmt.Errorf("predicate %q has no witness", pred)
	}
	return rep.Witness, nil
}
