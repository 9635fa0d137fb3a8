package gpd_test

import (
	"errors"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// sliceRoute is the option sending Detect through the predicate's slice.
var sliceRoute = gpd.WithStrategy(gpd.StrategySlice)

func TestSlicePublicAPI(t *testing.T) {
	c := gpd.New()
	a := c.AddInternal(c.AddProcess())
	b := c.AddInternal(c.AddProcess())
	c.SetVar("x", a, 1)
	c.SetVar("x", b, 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	// Only <1,1> satisfies both conjuncts: it is the slice's bottom, and
	// (top == final cut) every run ends in it.
	rep := detect(t, c, "all(x)", sliceRoute)
	if !rep.Holds || rep.Witness[0] != 1 || rep.Witness[1] != 1 {
		t.Fatalf("slice bottom = %v (holds %v), want <1,1>", rep.Witness, rep.Holds)
	}
	if def := detect(t, c, "all(x)", sliceRoute, definitely); !def.Holds || def.Work.Counters["slice.early_exit"] != 1 {
		t.Fatalf("Definitely through the slice = %v, counters %v; want an early exit at the top", def.Holds, def.Work.Counters)
	}
}

func TestSliceEmptyPublicAPI(t *testing.T) {
	c := gpd.New()
	c.AddInternal(c.AddProcess())
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	// An empty slice is a verdict, not an error.
	rep := detect(t, c, "all(never)", sliceRoute)
	if rep.Holds || rep.Witness != nil || rep.Work.Counters["slice.empty"] != 1 {
		t.Fatalf("empty slice: %+v", rep)
	}
}

// TestPossiblyLinearPublicAPI: the batch route of a conjunction returns
// the unique least satisfying cut (linearity), and the slice agrees.
func TestPossiblyLinearPublicAPI(t *testing.T) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.SetVar("x", c.AddInternal(p0), 1)
	c.SetVar("x", c.AddInternal(p0), 1)
	c.SetVar("x", c.Initial(p1).ID, 1)
	c.AddInternal(p1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range []gpd.Report{detect(t, c, "all(x)"), detect(t, c, "all(x)", sliceRoute)} {
		if !rep.Holds || rep.Witness[0] != 1 || rep.Witness[1] != 0 {
			t.Fatalf("least cut = %v (holds %v), want <1,0>", rep.Witness, rep.Holds)
		}
	}
}

// TestSliceStrategyAgreement: for every sliceable family, under both
// modalities, the StrategySlice route (build the predicate's slice,
// decide from it, delegate to the batch kernel only when the slice
// alone cannot answer) must reach the same verdict as StrategyBatch and
// StrategyReplay — and under Possibly the same witness cut as batch,
// bit-identically: both construct the least satisfying cut.
func TestSliceStrategyAgreement(t *testing.T) {
	rows := []struct {
		family SpecFamilyName
		preds  []string
		comp   func(seed int64) *gpd.Computation
		// replayable marks rows whose computations the replay route
		// accepts (conjunctive replay requires initial-false variables;
		// the token ring starts with tokens already held).
		replayable bool
	}{
		{"conjunctive", []string{"all(x)"}, conjComputation, true},
		// Initial-true states are fine for slice and batch — the two
		// routes share the truth convention replay cannot express.
		{"conjunctive", []string{"all(x)"}, randomComputation, false},
		{"conjunctive", []string{"all(tokens)"}, func(seed int64) *gpd.Computation {
			return ringComputationSeed(t, seed+1)
		}, false},
		{"inflight", []string{"inflight == 0"}, func(seed int64) *gpd.Computation {
			return ringComputationSeed(t, seed+1)
		}, true},
	}
	modalities := []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely}

	covered := map[string]bool{}
	for _, row := range rows {
		covered[string(row.family)] = true
		for seed := int64(0); seed < 4; seed++ {
			c := row.comp(seed)
			for _, text := range row.preds {
				spec, err := gpd.ParseSpec(text)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", text, err)
				}
				for _, m := range modalities {
					batch, err := gpd.Detect(c, spec, gpd.WithModality(m))
					if err != nil {
						t.Fatalf("seed %d: batch %v(%s): %v", seed, m, text, err)
					}
					slice, err := gpd.Detect(c, spec, gpd.WithModality(m),
						gpd.WithStrategy(gpd.StrategySlice))
					if err != nil {
						t.Fatalf("seed %d: slice %v(%s): %v", seed, m, text, err)
					}
					if slice.Holds != batch.Holds {
						t.Errorf("seed %d: %v(%s): slice %v, batch %v",
							seed, m, text, slice.Holds, batch.Holds)
					}
					if m == gpd.ModalityPossibly && batch.Holds {
						if slice.Witness == nil {
							t.Errorf("seed %d: %v(%s): slice produced no witness, batch %v",
								seed, m, text, batch.Witness)
						} else if batch.Witness != nil && !slice.Witness.Equal(batch.Witness) {
							t.Errorf("seed %d: %v(%s): slice witness %v, batch witness %v",
								seed, m, text, slice.Witness, batch.Witness)
						}
					}
					if !row.replayable {
						continue
					}
					replay, err := gpd.Detect(c, spec, gpd.WithModality(m),
						gpd.WithStrategy(gpd.StrategyReplay))
					if err != nil {
						t.Fatalf("seed %d: replay %v(%s): %v", seed, m, text, err)
					}
					if slice.Holds != replay.Holds {
						t.Errorf("seed %d: %v(%s): slice %v, replay %v",
							seed, m, text, slice.Holds, replay.Holds)
					}
				}
			}
		}
	}

	// Completeness: every registered family either appears in the
	// agreement matrix or is pinned as non-regular by the rejection test
	// below, so a newly added family cannot silently skip the check.
	for _, f := range registeredFamilies() {
		if !covered[f.String()] && nonRegularSpecs[f.String()] == "" {
			t.Errorf("registered family %v is in neither the slice agreement matrix nor the non-regular rejection list", f)
		}
	}
}

// nonRegularSpecs gives, for every family without a slice route, an
// example spec the rejection test drives through StrategySlice.
var nonRegularSpecs = map[string]string{
	"sum":       "sum(u) >= 1",
	"count":     "count(x) >= 1",
	"xor":       "xor(x)",
	"levels":    "levels(x): 0, 2",
	"cnf":       "cnf(x): (0 | !1)",
	"equilevel": "equilevel(x): 1",
}

// TestSliceRejectsNonRegularFamilies: families that are not regular
// must fail the slice route with an error matching ErrNotRegular — the
// registry's capability flags promise an explicit fallback, never a
// silent degrade to a different algorithm.
func TestSliceRejectsNonRegularFamilies(t *testing.T) {
	c := randomComputation(1)
	for family, text := range nonRegularSpecs {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		_, err = gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategySlice))
		if err == nil {
			t.Errorf("%s: slice route accepted a non-regular family", family)
			continue
		}
		if !errors.Is(err, gpd.ErrNotRegular) {
			t.Errorf("%s: error %v does not match ErrNotRegular", family, err)
		}
	}
}

// TestSliceRejectsNonRegularFragment: the inflight family is sliceable
// only at inflight == 0 (quiescence); every other occupancy spec sits
// outside the regular fragment and must be rejected with the witnessing
// detail, not the bare sentinel.
func TestSliceRejectsNonRegularFragment(t *testing.T) {
	c := ringComputationSeed(t, 1)
	for _, text := range []string{"inflight == 2", "inflight >= 1", "inflight != 0"} {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		_, err = gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategySlice))
		if err == nil {
			t.Errorf("%s: slice route accepted a non-regular occupancy spec", text)
			continue
		}
		if !errors.Is(err, gpd.ErrNotRegular) {
			t.Errorf("%s: error %v does not match ErrNotRegular", text, err)
		}
		if len(err.Error()) <= len(gpd.ErrNotRegular.Error()) {
			t.Errorf("%s: error %q carries no detail beyond the sentinel", text, err)
		}
	}
}

// TestSliceReportsWork: the slice route accounts its runs under the
// slice: span with the slice.* counters.
func TestSliceReportsWork(t *testing.T) {
	c := conjComputation(3)
	spec, err := gpd.ParseSpec("all(x)")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategySlice))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work.Counters["slice.built"]+rep.Work.Counters["slice.empty"] == 0 {
		t.Errorf("slice run reported no slice.built/slice.empty work: %+v", rep.Work.Counters)
	}
	found := false
	for _, sp := range rep.Work.Spans {
		if sp.Name == "slice:conjunctive" {
			found = true
		}
	}
	if !found {
		t.Errorf("slice run reported no slice:conjunctive span: %+v", rep.Work.Spans)
	}
}
