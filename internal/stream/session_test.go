package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// replay shuffles a trace, streams it through a fresh session with
// flushes interleaved at random (exercising causal holdback and frontier
// pruning mid-stream), and finalizes. The incremental Possibly latch is
// checked for monotonicity on the way.
func replay(t *testing.T, rng *rand.Rand, spec Spec, events []Event) (Verdict, *Session) {
	t.Helper()
	s, err := NewSession(spec)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	evs := append([]Event(nil), events...)
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	sawPossibly := false
	for _, ev := range evs {
		if err := s.Step(ev); err != nil {
			t.Fatalf("Step(%+v): %v", ev, err)
		}
		if rng.Intn(3) == 0 {
			s.Flush()
			if sawPossibly && !s.Possibly() {
				t.Fatalf("Possibly latch went true -> false mid-stream")
			}
			sawPossibly = s.Possibly()
		}
	}
	v, err := s.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if sawPossibly && !v.Possibly {
		t.Fatalf("Possibly latched mid-stream but final verdict is false")
	}
	if !v.DefinitelyKnown && spec.Retain {
		t.Fatalf("Retain set but Definitely not decided")
	}
	return v, s
}

// tableTrace replays per-process truth tables (the generator/simulator
// representation) as Truth flags. Initial states are taken as false, so
// rows' index-0 entries are ignored — matching the online convention that
// probes report events, not initial states.
func tableTrace(c *computation.Computation, truth [][]bool) []Event {
	return detect.LinearizeEvents(c, func(e computation.Event, ev *Event) {
		row := truth[int(e.Proc)]
		ev.Truth = e.Index < len(row) && row[e.Index]
	})
}

func randomComputation(seed int64) *computation.Computation {
	rng := rand.New(rand.NewSource(seed * 7919))
	return gen.Random(gen.Params{
		Seed:    seed,
		Procs:   2 + rng.Intn(3),
		Events:  3 + rng.Intn(4),
		MsgFrac: 0.3 + rng.Float64(),
	})
}

// TestSessionConjunctiveAgreesWithOffline replays random computations with
// random local-predicate tables and checks both modalities against the
// offline detectors (weak-conjunctive token elimination and the interval
// overlap graph).
func TestSessionConjunctiveAgreesWithOffline(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
		for p := range truth {
			truth[p][0] = false // online sessions take initial states as false
		}
		locals := make(map[computation.ProcID]conjunctive.LocalPredicate)
		for p := range truth {
			row := truth[p]
			locals[computation.ProcID(p)] = func(e computation.Event) bool {
				return e.Index < len(row) && row[e.Index]
			}
		}
		offPos := conjunctive.DetectTraced(c, locals, nil).Found
		offDef := conjunctive.DetectDefinitelyTraced(c, locals, nil)

		spec := Spec{Pred: "all(x)", Procs: c.NumProcs(), Retain: true}
		v, _ := replay(t, rng, spec, tableTrace(c, truth))
		if v.Possibly != offPos {
			t.Errorf("seed %d: Possibly: stream=%v offline=%v", seed, v.Possibly, offPos)
		}
		if v.Definitely != offDef {
			t.Errorf("seed %d: Definitely: stream=%v offline=%v", seed, v.Definitely, offDef)
		}
	}
}

// TestSessionSumEqAgreesWithOffline replays unit-step variables and checks
// Possibly/Definitely(sum = K) against the offline relsum engine for K
// around and outside the reachable range.
func TestSessionSumEqAgreesWithOffline(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		gen.UnitStepVar(seed, c, varName)
		events, init := SumTrace(c, varName)
		lo, hi := relsum.SumRange(c, varName)
		for _, k := range []int64{lo - 1, lo, (lo + hi) / 2, hi, hi + 1} {
			offPos, _, _, _, err := relsum.PossiblyPar(c, varName, relsum.Eq, k, 1, nil)
			if err != nil {
				t.Fatalf("seed %d: offline Possibly: %v", seed, err)
			}
			offDef, err := relsum.DefinitelyPar(c, varName, relsum.Eq, k, 1, nil)
			if err != nil {
				t.Fatalf("seed %d: offline Definitely: %v", seed, err)
			}
			spec := Spec{Pred: sumEqPred(k), Procs: c.NumProcs(), Init: init, Retain: true}
			v, _ := replay(t, rng, spec, events)
			if v.Possibly != offPos {
				t.Errorf("seed %d K=%d: Possibly: stream=%v offline=%v", seed, k, v.Possibly, offPos)
			}
			if v.Definitely != offDef {
				t.Errorf("seed %d K=%d: Definitely: stream=%v offline=%v", seed, k, v.Definitely, offDef)
			}
		}
	}
}

// TestSessionSymmetricAgreesWithOffline replays boolean variables under
// several symmetric specs and checks both modalities against the offline
// level-set detector.
func TestSessionSymmetricAgreesWithOffline(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		gen.BoolVar(seed, c, varName, 0.35)
		events, init := BoolTrace(c, varName)
		truth := func(e computation.Event) bool { return c.Var(varName, e.ID) != 0 }
		n := c.NumProcs()
		specs := []symmetric.Spec{
			symmetric.Xor(n),
			symmetric.NoSimpleMajority(n),
			symmetric.ExactlyK(n, n/2),
			symmetric.NotAllEqual(n),
		}
		for _, sp := range specs {
			if len(sp.Levels) == 0 {
				continue // unsatisfiable (e.g. NoSimpleMajority with odd n)
			}
			offPos, _, _, _, err := symmetric.PossiblyPar(c, sp, truth, 1, nil)
			if err != nil {
				t.Fatalf("seed %d %v: offline Possibly: %v", seed, sp, err)
			}
			offDef, err := symmetric.DefinitelyPar(c, sp, truth, 1, nil)
			if err != nil {
				t.Fatalf("seed %d %v: offline Definitely: %v", seed, sp, err)
			}
			spec := Spec{Pred: levelsPred(sp.Levels), Procs: n, Init: init, Retain: true}
			v, _ := replay(t, rng, spec, events)
			if v.Possibly != offPos {
				t.Errorf("seed %d %v: Possibly: stream=%v offline=%v", seed, sp, v.Possibly, offPos)
			}
			if v.Definitely != offDef {
				t.Errorf("seed %d %v: Definitely: stream=%v offline=%v", seed, sp, v.Definitely, offDef)
			}
		}
	}
}

// TestSessionPruningBoundsWindow checks that in-order streaming keeps the
// detector window bounded by the frontier, not the stream length.
func TestSessionPruningBoundsWindow(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 42, Procs: 3, Events: 40, MsgFrac: 1.5})
	gen.UnitStepVar(42, c, varName)
	events, init := SumTrace(c, varName)
	s, err := NewSession(Spec{Pred: "sum(x) == 1", Procs: 3, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	maxWindow := 0
	for _, ev := range events { // topological order: deliverable immediately
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		if w := s.Window(); w > maxWindow {
			maxWindow = w
		}
	}
	if total := len(events); maxWindow >= total {
		t.Fatalf("window high-water %d never dipped below stream length %d (no pruning)", maxWindow, total)
	}
}

// TestSessionRejects checks structural failure modes: bad timestamps,
// duplicate delivery, gaps at close, and the MaxWindow bound.
func TestSessionRejects(t *testing.T) {
	spec := Spec{Pred: "all(x)", Procs: 2}
	t.Run("bad proc", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 5, VC: []int64{1, 0}}); err == nil {
			t.Fatal("want error for out-of-range proc")
		}
	})
	t.Run("bad vc length", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 0, VC: []int64{1}}); err == nil {
			t.Fatal("want error for short VC")
		}
	})
	t.Run("duplicate is idempotent", func(t *testing.T) {
		s, _ := NewSession(spec)
		ev := Event{Proc: 0, VC: []int64{1, 0}}
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(ev); err != nil {
			t.Fatalf("client retry of a delivered event must be a no-op, got %v", err)
		}
		if got := s.Delivered(); got != 1 {
			t.Fatalf("Delivered = %d after retry, want 1", got)
		}
	})
	t.Run("gap at close", func(t *testing.T) {
		s, _ := NewSession(spec)
		if err := s.Step(Event{Proc: 0, VC: []int64{2, 0}}); err != nil {
			t.Fatal(err) // held back: event 1 of proc 0 is missing
		}
		if _, err := s.Finalize(); err == nil {
			t.Fatal("want error for undeliverable holdback at close")
		}
	})
	t.Run("max window", func(t *testing.T) {
		s, _ := NewSession(Spec{Pred: "all(x)", Procs: 2, MaxWindow: 2})
		var err error
		for i := int64(2); i < 10 && err == nil; i++ {
			err = s.Step(Event{Proc: 0, VC: []int64{i, 0}}) // all held back
		}
		if err == nil {
			t.Fatal("want error once holdback exceeds MaxWindow")
		}
	})
}

// TestMuxFinalizeAllocsIndependentOfRegistrations: a mux session's
// close reads only its own registration's state, not the close fan-out
// (the engine builds that once, through PredicateStates), so
// FinalizeTraced allocates no more with 1 024 registrations than with 1.
func TestMuxFinalizeAllocsIndependentOfRegistrations(t *testing.T) {
	allocs := func(n int) float64 {
		s, err := NewSession(Spec{Mux: true, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := int64(i % 5) // the odd ones latch, and close from the group's delivered record
			if i%2 == 0 {
				k = 1 << 40
			}
			spec := pred.Spec{Family: pred.Sum, Var: fmt.Sprintf("v%d", i%8), Rel: relsum.Ge, K: k}
			if err := s.Register(mux.Registration{ID: fmt.Sprintf("p%d", i), Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		for i, vc := range [][]int64{{1, 0}, {0, 1}, {2, 0}, {2, 2}} {
			if err := s.Step(Event{Proc: i % 2, VC: vc, Var: "v0", Val: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.FinalizeTraced(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(1024); many > one {
		t.Fatalf("FinalizeTraced allocates %.0f times with 1 024 registrations, %.0f with 1", many, one)
	}
}
