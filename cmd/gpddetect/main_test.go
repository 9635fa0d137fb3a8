package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// writeRingTrace produces a token-ring trace file and returns its path.
func writeRingTrace(t *testing.T) string {
	t.Helper()
	sim := gpd.NewSimulator(3, gpd.NewTokenRingProcs(4, 2, 1, 3))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gpd.WriteTrace(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func detectOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestSumPredicates(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "sum(tokens) == 2")
	if !strings.Contains(out, "= true") {
		t.Errorf("expected detection, got %q", out)
	}
	if !strings.Contains(out, "witness cut") {
		t.Errorf("expected witness, got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "sum(tokens) > 2")
	if !strings.Contains(out, "= false") {
		t.Errorf("conservation must hold, got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "sum(tokens) >= 1", "-modality", "definitely")
	if !strings.Contains(out, "Definitely") {
		t.Errorf("expected definitely output, got %q", out)
	}
}

func TestCountAndXor(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "count(tokens) >= 1")
	if !strings.Contains(out, "Possibly(count(tokens) >= 1) = true") {
		t.Errorf("got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "xor(tokens)")
	if !strings.Contains(out, "Possibly(xor(tokens))") {
		t.Errorf("got %q", out)
	}
}

func TestInFlightPredicates(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "inflight == 1")
	if !strings.Contains(out, "Possibly(inflight == 1) = true") {
		t.Errorf("got %q", out)
	}
	if !strings.Contains(out, "witness cut") {
		t.Errorf("expected witness, got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "inflight >= 1")
	if !strings.Contains(out, "= true") {
		t.Errorf("got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "inflight > 99")
	if !strings.Contains(out, "= false") {
		t.Errorf("got %q", out)
	}
	for _, bad := range [][]string{
		{"-trace", trace, "-pred", "inflight == x"},
		{"-trace", trace, "-pred", "inflight <>"},
	} {
		var buf bytes.Buffer
		if err := run(bad, strings.NewReader(""), &buf); err == nil {
			t.Errorf("run(%v) should fail", bad)
		}
	}
}

// TestDefinitelyMatchesDetect: the CLI answers every (family, modality)
// the front door does — inflight and cnf under definitely included, which
// an old shim used to refuse — with gpd.Detect's own verdict.
func TestDefinitelyMatchesDetect(t *testing.T) {
	trace := writeRingTrace(t)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := gpd.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"inflight == 1", "inflight >= 0", "cnf(tokens): (0)", "cnf(tokens): (0 | 1) & (2 | 3)"} {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := gpd.Detect(c, spec, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			t.Fatalf("Detect(%s): %v", text, err)
		}
		out := detectOut(t, "-trace", trace, "-pred", text, "-modality", "definitely")
		if want := fmt.Sprintf("Definitely(%s) = %v", spec, rep.Holds); !strings.Contains(out, want) {
			t.Errorf("CLI printed %q, want %q", out, want)
		}
	}
}

func TestCNFPredicate(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "cnf(tokens): (0 | 1) & (2 | 3)", "-strategy", "chains")
	if !strings.Contains(out, "Possibly(") {
		t.Errorf("got %q", out)
	}
}

func TestStdinTrace(t *testing.T) {
	sim := gpd.NewSimulator(5, gpd.NewTokenRingProcs(3, 1, 1, 2))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-pred", "sum(tokens) == 1"}, &buf, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "= true") {
		t.Errorf("got %q", out.String())
	}
}

func TestBadInputs(t *testing.T) {
	trace := writeRingTrace(t)
	for _, args := range [][]string{
		{"-trace", trace},                              // no pred
		{"-trace", trace, "-pred", "bogus"},            // bad syntax
		{"-trace", trace, "-pred", "sum(tokens) <> 1"}, // bad relop
		{"-trace", trace, "-pred", "sum(tokens) == x"}, // bad constant
		{"-trace", trace, "-pred", "sum(tokens"},       // missing paren
		{"-trace", trace, "-pred", "sum(tokens) == 1", "-modality", "never"},
		{"-trace", trace, "-pred", "cnf(tokens): (a)", "-strategy", "chains"},
		{"-trace", trace, "-pred", "cnf(tokens): (0)", "-strategy", "warp"},
		{"-trace", "/does/not/exist", "-pred", "sum(tokens) == 1"},
	} {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestLevelsPredicate(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "levels(tokens): 0, 2")
	if !strings.Contains(out, "Possibly(levels(tokens): 0, 2) = true") {
		t.Errorf("got %q", out)
	}
}

func TestReportFlag(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "sum(tokens) == 2", "-report")
	for _, want := range []string{"= true", "detect:sum", "maxflow.augmenting_paths"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestStrategyRejectedOffCNF: an explicitly set -strategy used to be
// silently ignored for non-cnf predicates and under definitely; it is an
// error now. The unset default stays silent.
func TestStrategyRejectedOffCNF(t *testing.T) {
	trace := writeRingTrace(t)
	for _, bad := range [][]string{
		{"-trace", trace, "-pred", "sum(tokens) == 2", "-strategy", "chains"},
		{"-trace", trace, "-pred", "all(tokens)", "-strategy", "auto"},
	} {
		var out bytes.Buffer
		if err := run(bad, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v) should fail", bad)
		}
	}
	// Not setting -strategy at all keeps working for every family.
	out := detectOut(t, "-trace", trace, "-pred", "sum(tokens) == 2")
	if !strings.Contains(out, "= true") {
		t.Errorf("got %q", out)
	}
}

func TestAllPredicate(t *testing.T) {
	trace := writeRingTrace(t)
	out := detectOut(t, "-trace", trace, "-pred", "all(tokens)")
	if !strings.Contains(out, "Possibly(all(tokens))") {
		t.Errorf("got %q", out)
	}
	out = detectOut(t, "-trace", trace, "-pred", "all(tokens)", "-modality", "definitely")
	if !strings.Contains(out, "Definitely(all(tokens))") {
		t.Errorf("got %q", out)
	}
}

// TestFlightExport runs a detection with -flight and checks the output
// is Chrome trace-event JSON whose slices carry the run's span names.
func TestFlightExport(t *testing.T) {
	trace := writeRingTrace(t)
	flight := filepath.Join(t.TempDir(), "run.json")
	detectOut(t, "-trace", trace, "-pred", "sum(tokens) == 2", "-flight", flight)
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("flight output does not parse: %v\n%s", err, raw)
	}
	var slices int
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "name", "pid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		if ev["ph"] == "X" {
			slices++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("slice %d missing ts: %v", i, ev)
			}
		}
	}
	if slices == 0 {
		t.Fatalf("no span slices in flight output: %s", raw)
	}

	if err := run([]string{"-trace", trace, "-pred", "sum(tokens) == 2",
		"-flight", filepath.Join(t.TempDir(), "missing", "dir.json")},
		strings.NewReader(""), io.Discard); err == nil {
		t.Fatal("want error for unwritable -flight path")
	}
}
