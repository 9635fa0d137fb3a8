package detect

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// fakeDetector implements Detector but not Toucher.
type fakeDetector struct{}

func (fakeDetector) Step(Event) error   { return nil }
func (fakeDetector) Flush() bool        { return false }
func (fakeDetector) Possibly() bool     { return false }
func (fakeDetector) Window() int        { return 0 }
func (fakeDetector) Snapshot() Snapshot { return Snapshot{} }

// TestTouchesOfDefault checks the conservative touches-everything
// default for detectors without a relevance hint.
func TestTouchesOfDefault(t *testing.T) {
	r := TouchesOf(fakeDetector{})
	if r.Procs != nil || r.Vars != nil {
		t.Fatalf("default relevance = %+v, want touches-everything (nil, nil)", r)
	}
}

// TestEveryIncrementalFamilyReportsRelevance builds one detector per
// registered incremental family and checks its relevance hint names the
// spec's variable (the router's precondition for indexing it at all) and
// stays inside the spec's process set.
func TestEveryIncrementalFamilyReportsRelevance(t *testing.T) {
	const procs = 4
	specs := map[pred.Family]pred.Spec{
		pred.Conjunctive: {Family: pred.Conjunctive, Var: "x"},
		pred.Sum:         {Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 1},
		pred.Count:       {Family: pred.Count, Var: "x", Rel: relsum.Ge, K: 1},
		pred.Xor:         {Family: pred.Xor, Var: "x"},
		pred.Levels:      {Family: pred.Levels, Var: "x", Levels: []int{1}},
		pred.InFlight:    {Family: pred.InFlight, Rel: relsum.Ge, K: 1},
	}
	for _, f := range families() {
		e, ok := Lookup(f, ModalityPossibly)
		if !ok || !e.Caps.Incremental {
			continue
		}
		s, ok := specs[f]
		if !ok {
			t.Errorf("family %v: no spec in the test table; add one", f)
			continue
		}
		d, err := e.New(s, Config{Procs: procs})
		if err != nil {
			t.Fatalf("family %v: New: %v", f, err)
		}
		r := TouchesOf(d)
		wantVar := s.Var
		if f == pred.InFlight {
			wantVar = InFlightVar
		}
		if len(r.Vars) != 1 || r.Vars[0] != wantVar {
			t.Errorf("family %v: Touches().Vars = %v, want [%q]", f, r.Vars, wantVar)
		}
		for _, p := range r.Procs {
			if p < 0 || p >= procs {
				t.Errorf("family %v: Touches().Procs contains out-of-range process %d", f, p)
			}
		}
	}
}

// TestConjunctiveTouchesInvolved checks the conjunctive hint narrows to
// the involved processes.
func TestConjunctiveTouchesInvolved(t *testing.T) {
	e, ok := Lookup(pred.Conjunctive, ModalityPossibly)
	if !ok {
		t.Fatal("conjunctive not registered")
	}
	d, err := e.New(pred.Spec{Family: pred.Conjunctive, Var: "x"}, Config{Procs: 5, Involved: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	r := TouchesOf(d)
	if len(r.Procs) != 2 || r.Procs[0] != 1 || r.Procs[1] != 3 {
		t.Fatalf("Touches().Procs = %v, want [1 3]", r.Procs)
	}
}
