// Command gpdbench prints the claims table of internal/experiments as
// markdown: every figure and formal claim of Mittal & Garg (ICDCS 2001)
// measured on its full ladder and checked against the paper's bound — the
// generated block of EXPERIMENTS.md, byte for byte. A claim that fails to
// measure or violates its bound is an error, not a cell.
//
//	gpdbench            # every claim
//	gpdbench -run E3    # one claim by id (F1..F3, E1..E7, X1..X3)
//
// Speed is measured elsewhere: per-run work reports by gpddetect -report,
// wall time by the repository benchmark in bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/distributed-predicates/gpd/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpdbench", flag.ContinueOnError)
	id := fs.String("run", "", "print only the claim with this id (e.g. E3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	claims := experiments.Claims
	if cl := experiments.Get(*id); cl != nil {
		claims = []*experiments.Claim{cl}
	} else if *id != "" {
		var ids []string
		for _, c := range claims {
			ids = append(ids, c.ID)
		}
		return fmt.Errorf("unknown claim %q (known: %s)", *id, strings.Join(ids, ", "))
	}
	return experiments.Write(stdout, claims)
}
