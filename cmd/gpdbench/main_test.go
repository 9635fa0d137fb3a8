package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleFastExperiment(t *testing.T) {
	// F2 is instantaneous: the Figure 2 relations table.
	if err := run([]string{"-run", "F2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "Z9"}, io.Discard); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}

func TestWorkReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-report"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Possibly(sum(tokens) == 3)",
		"Definitely(all(tokens))",
		"Possibly(cnf(tokens): (0 | 1) & (2 | 3))",
		"detect:cnf",
		"maxflow.augmenting_paths",
		"singular.cpdhb_runs",
		"conjunctive.tokens_advanced",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report output missing %q:\n%s", want, s)
		}
	}
}
