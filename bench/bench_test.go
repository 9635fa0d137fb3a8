package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/stream"
)

// smoke runs one workload at a fiftieth of its size and returns the
// parsed result line, the whole output and the exit code.
func smoke(t *testing.T, workload string, trace string) (result, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-scale", "0.02", "-seconds", "1", "-seed", "3", "-trace", trace, "-out", t.TempDir()}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errOut.String())
	}
	return res, out.String(), code
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest pins BENCHMARK.json to the tables the code reports from.
func TestManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmokeAllWorkloads runs every workload both ways and checks that each
// manifest metric is printed exactly once, with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	var work []float64
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			res, out, code := smoke(t, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics in the result, manifest lists %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or with unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
				if n := strings.Count(out, "\n"+d.Name+" "); n != 1 {
					t.Errorf("%s trace=%s: metric %s printed %d times", w.Name, trace, d.Name, n)
				}
			}
			if w.Name == "batch_sweep" && trace == "1" {
				work = append(work, res.Metrics["batch.work_total"].Value)
			}
		}
	}
	// Identical seed, identical work: the count a later change may claim.
	res, _, _ := smoke(t, "batch_sweep", "1")
	if work = append(work, res.Metrics["batch.work_total"].Value); work[0] != work[1] || work[0] == 0 {
		t.Errorf("batch.work_total differs between two runs of one seed: %v", work)
	}
}

// TestCorruptedVerdictIsCaught flips one oracle verdict per connection
// and expects the run to count it and fail.
func TestCorruptedVerdictIsCaught(t *testing.T) {
	corruptOracle = true
	defer func() { corruptOracle = false }()
	for _, w := range []string{"ingest_wire", "verdict_scrambled", "mux_fanout"} {
		res, out, code := smoke(t, w, "0")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted oracle went unnoticed: exit %d, result %+v", w, code, res)
		}
		if !strings.Contains(out, "FAILED seed=3 session ") {
			t.Errorf("%s: failure not printed with its seed and session id:\n%s", w, out)
		}
	}
}

// requestBytes encodes the first frames of a workload's request stream.
func requestBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	send := func(id string, evs []stream.Event) {
		if err := stream.EncodeRequest(&buf, stream.Request{V: stream.ProtocolVersion, Type: "append", Session: id, Events: evs}); err != nil {
			t.Fatal(err)
		}
	}
	switch workload {
	case "verdict_scrambled":
		for j := 0; j < 6; j++ {
			p, err := planSession(seed, j)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range p.frames {
				send(p.id, f)
			}
		}
	default:
		in, err := prepareClosed(workload, options{seed: seed, scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		for c := range in.seeds {
			src := in.source(c)
			for f := 0; f < 32; f++ {
				evs, _ := src.frame(in.frameEvents)
				send(workload+string(rune('0'+c)), evs)
			}
		}
	}
	return buf.Bytes()
}

// TestSameSeedSameFrames: the seed alone decides the bytes on the wire.
func TestSameSeedSameFrames(t *testing.T) {
	for _, w := range []string{"ingest_wire", "verdict_scrambled", "mux_fanout"} {
		a, b, other := requestBytes(t, w, 11), requestBytes(t, w, 11), requestBytes(t, w, 12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two different request streams", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: two seeds gave the same request stream", w)
		}
	}
}
