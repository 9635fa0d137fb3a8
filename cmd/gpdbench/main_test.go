package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunSingleFastExperiment prints one claim twice: the output is a
// markdown section for that claim alone, and it repeats byte for byte (E6
// is the claim whose measure ranges over a map).
func TestRunSingleFastExperiment(t *testing.T) {
	var first, second bytes.Buffer
	if err := run([]string{"-run", "e6"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E6"}, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first.String(), "### E6 — Section 4.3") || strings.Count(first.String(), "###") != 1 {
		t.Errorf("-run E6 printed:\n%s", first.String())
	}
	if first.String() != second.String() {
		t.Errorf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := run([]string{"-run", "Z9"}, io.Discard)
	if err == nil {
		t.Fatal("unknown claim id must error")
	}
	for _, id := range []string{"F1", "E7", "X3"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
}
