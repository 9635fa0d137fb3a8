// Command gpdlint runs the repository's project-specific static
// analyzers over the module: concurrency, layering and determinism
// invariants the compiler cannot check (see internal/lint for the rule
// catalog).
//
// Usage:
//
//	go run ./cmd/gpdlint ./...
//	go run ./cmd/gpdlint -rules lockheld,layering ./internal/...
//	go run ./cmd/gpdlint -list
//
// Findings print one per line as "file:line: [rule] message"; a
// per-rule count summary always prints to stderr. Exit status is 0 when
// clean, 1 on findings, 2 when the load itself fails. Suppress a finding
// with "//lint:ignore rule reason" on or directly above the offending
// line.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/distributed-predicates/gpd/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	dir := flag.String("C", ".", "directory to resolve patterns against")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpdlint:", err)
		os.Exit(lint.ExitError)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(lint.Exec(*dir, patterns, analyzers, os.Stdout, os.Stderr))
}
