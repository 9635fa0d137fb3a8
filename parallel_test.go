package gpd_test

// The parallel-vs-sequential agreement matrix: for every family the
// detector registry knows, under both modalities, Detect with
// WithParallelism(n) must produce a Report bit-identical to the exact
// sequential run (WithParallelism(1)) — same verdict, same witness cut,
// same work counters, same span tree shape. The parallel kernels buy
// wall-clock time only; any divergence here is a scheduling leak into a
// verdict. CI runs this test under -race.

import (
	"fmt"
	"reflect"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// parallelWorkerCounts are compared against the sequential baseline:
// 0 resolves to GOMAXPROCS, the rest pin the pool size, including
// counts above the machine's core count.
var parallelWorkerCounts = []int{0, 2, 3, 4, 8}

// spanShape reduces a work report's spans to the scheduling-independent
// part: the (name, depth) sequence. Start times and durations vary run
// to run; the tree shape must not.
func spanShape(w gpd.Work) [][2]interface{} {
	out := make([][2]interface{}, 0, len(w.Spans))
	for _, s := range w.Spans {
		out = append(out, [2]interface{}{s.Name, s.Depth})
	}
	return out
}

func assertReportsEqual(t *testing.T, label string, seq, par gpd.Report) {
	t.Helper()
	if par.Holds != seq.Holds {
		t.Errorf("%s: Holds %v, sequential %v", label, par.Holds, seq.Holds)
	}
	if !reflect.DeepEqual(par.Witness, seq.Witness) {
		t.Errorf("%s: Witness %v, sequential %v", label, par.Witness, seq.Witness)
	}
	if par.Strategy != seq.Strategy {
		t.Errorf("%s: Strategy %v, sequential %v", label, par.Strategy, seq.Strategy)
	}
	if par.Combinations != seq.Combinations {
		t.Errorf("%s: Combinations %d, sequential %d", label, par.Combinations, seq.Combinations)
	}
	if par.Min != seq.Min || par.Max != seq.Max || par.HasRange != seq.HasRange {
		t.Errorf("%s: range [%d,%d] has=%v, sequential [%d,%d] has=%v",
			label, par.Min, par.Max, par.HasRange, seq.Min, seq.Max, seq.HasRange)
	}
	if !reflect.DeepEqual(par.Work.Counters, seq.Work.Counters) {
		t.Errorf("%s: counters %v, sequential %v", label, par.Work.Counters, seq.Work.Counters)
	}
	if !reflect.DeepEqual(spanShape(par.Work), spanShape(seq.Work)) {
		t.Errorf("%s: span shape %v, sequential %v", label, spanShape(par.Work), spanShape(seq.Work))
	}
}

func TestParallelBatchAgreement(t *testing.T) {
	rows := []struct {
		family SpecFamilyName
		preds  []string
		comp   func(seed int64) *gpd.Computation
	}{
		{"conjunctive", []string{"all(x)"}, randomComputation},
		{"sum", []string{"sum(u) == 0", "sum(u) == 2", "sum(u) >= 1", "sum(u) < 0", "sum(u) != 0"}, randomComputation},
		{"count", []string{"count(x) >= 2", "count(x) == 0", "count(x) != 4"}, randomComputation},
		{"xor", []string{"xor(x)"}, randomComputation},
		{"levels", []string{"levels(x): 0, 2", "levels(x): 4"}, randomComputation},
		{"inflight", []string{"inflight >= 1", "inflight != 0"}, randomComputation},
		{"inflight", []string{"inflight == 0", "inflight == 2", "inflight <= 1"}, func(seed int64) *gpd.Computation {
			return ringComputation(t, seed+1)
		}},
		{"cnf", []string{"cnf(x): (0 | !1) & (2 | 3)", "cnf(x): (0) & (!1 | 2)"}, randomComputation},
		{"equilevel", []string{"equilevel(x): 0", "equilevel(x): 3", "equilevel(x): 6", "equilevel(x): 100"}, randomComputation},
	}
	modalities := []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely}

	covered := map[string]bool{}
	for _, row := range rows {
		covered[string(row.family)] = true
		for seed := int64(0); seed < 3; seed++ {
			c := row.comp(seed)
			for _, text := range row.preds {
				spec, err := gpd.ParseSpec(text)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", text, err)
				}
				for _, m := range modalities {
					seq, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithParallelism(1))
					if err != nil {
						t.Fatalf("seed %d: sequential %v(%s): %v", seed, m, text, err)
					}
					for _, w := range parallelWorkerCounts {
						par, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithParallelism(w))
						if err != nil {
							t.Fatalf("seed %d: par=%d %v(%s): %v", seed, w, m, text, err)
						}
						label := testLabel(seed, w, m, text)
						assertReportsEqual(t, label, seq, par)
					}
				}
			}
		}
	}

	// Completeness: a newly registered family cannot silently skip the
	// parallel cross-check.
	for _, f := range registeredFamilies() {
		if !covered[f.String()] {
			t.Errorf("registered family %v is missing from the parallel agreement matrix", f)
		}
	}
}

// TestParallelSingularStrategies pins the explicit singular algorithms
// (not just StrategyAuto) to the same parallel determinism contract:
// the CPDHB selection blocks merge in odometer order, so strategy,
// witness, combination and elimination counts cannot depend on the
// worker count.
func TestParallelSingularStrategies(t *testing.T) {
	strategies := []gpd.SingularStrategy{gpd.StrategyAuto, gpd.StrategyProcessSubsets, gpd.StrategyChainCover}
	preds := []string{"cnf(x): (0 | !1) & (2 | 3)", "cnf(x): (0 | 1) & (2) & (!3)"}
	for seed := int64(0); seed < 3; seed++ {
		c := randomComputation(seed)
		for _, text := range preds {
			spec, err := gpd.ParseSpec(text)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", text, err)
			}
			for _, strat := range strategies {
				seq, err := gpd.Detect(c, spec, gpd.WithStrategy(strat), gpd.WithParallelism(1))
				if err != nil {
					t.Fatalf("seed %d: sequential %v(%s): %v", seed, strat, text, err)
				}
				for _, w := range parallelWorkerCounts {
					par, err := gpd.Detect(c, spec, gpd.WithStrategy(strat), gpd.WithParallelism(w))
					if err != nil {
						t.Fatalf("seed %d: par=%d %v(%s): %v", seed, w, strat, text, err)
					}
					label := testLabel(seed, w, gpd.ModalityPossibly, text) + "/" + strat.String()
					assertReportsEqual(t, label, seq, par)
				}
			}
		}
	}
}

// TestParallelismRejectsNegative: WithParallelism(-1) must be an error,
// not a silent fallback.
func TestParallelismRejectsNegative(t *testing.T) {
	c := randomComputation(1)
	spec, err := gpd.ParseSpec("all(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpd.Detect(c, spec, gpd.WithParallelism(-1)); err == nil {
		t.Fatal("Detect accepted a negative parallelism")
	}
}

func testLabel(seed int64, workers int, m gpd.Modality, pred string) string {
	return fmt.Sprintf("seed=%d/par=%d/%v/%s", seed, workers, m, pred)
}
