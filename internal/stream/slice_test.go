package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// TestSlicedSessionAgreesWithRetain replays random computations through a
// session that keeps no trace and a retaining control and pins their
// agreement: same Possibly always; and whenever the endpoints decide
// Definitely, it must match the control's exact offline answer. The
// second arm involves only the even processes: the odd ones carry no
// conjunct and report false on every event, so a session that read
// their flags would miss the cuts past their events.
func TestSlicedSessionAgreesWithRetain(t *testing.T) {
	for _, arm := range []struct {
		name string
		step int // every step-th process is involved
	}{
		{"all", 1},
		{"even", 2},
	} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := randomComputation(seed)
			truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
			var involved []int
			for p := range truth {
				truth[p][0] = false // online sessions take initial states as false
				if p%arm.step != 0 {
					clear(truth[p])
				} else if arm.step > 1 {
					involved = append(involved, p)
				}
			}
			events := tableTrace(c, truth)

			ctrl, _ := replay(t, rand.New(rand.NewSource(seed)),
				Spec{Pred: "all(x)", Procs: c.NumProcs(), Involved: involved, Retain: true}, events)
			v, _ := replay(t, rand.New(rand.NewSource(seed)),
				Spec{Pred: "all(x)", Procs: c.NumProcs(), Involved: involved}, events)

			if v.Possibly != ctrl.Possibly {
				t.Errorf("%s seed %d: Possibly: sliced=%v retain=%v", arm.name, seed, v.Possibly, ctrl.Possibly)
			}
			if v.DefinitelyKnown && v.Definitely != ctrl.Definitely {
				t.Errorf("%s seed %d: slice decided Definitely=%v, offline says %v", arm.name, seed, v.Definitely, ctrl.Definitely)
			}
			if !v.Possibly && !v.DefinitelyKnown {
				t.Errorf("%s seed %d: empty slice must decide Definitely false", arm.name, seed)
			}
		}
	}
}

// TestSlicedSessionDefinitely pins the two close-time outcomes a session
// decides from the endpoints without a retained trace.
func TestSlicedSessionDefinitely(t *testing.T) {
	build := func(truthAt func(p, i int) bool) ([]Event, int) {
		c := computation.New()
		for p := 0; p < 2; p++ {
			c.AddProcess()
			c.AddInternal(computation.ProcID(p))
			c.AddInternal(computation.ProcID(p))
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		truth := make([][]bool, 2)
		for p := range truth {
			truth[p] = []bool{false, truthAt(p, 1), truthAt(p, 2)}
		}
		return tableTrace(c, truth), c.NumProcs()
	}

	// Every event true: the final cut satisfies, so every run ends in a
	// satisfying cut — Definitely true.
	evs, procs := build(func(p, i int) bool { return true })
	v, _ := replay(t, rand.New(rand.NewSource(1)), Spec{Pred: "all(x)", Procs: procs}, evs)
	if !v.Possibly || !v.DefinitelyKnown || !v.Definitely {
		t.Fatalf("all-true trace: verdict %+v, want Definitely true (known)", v)
	}

	// No event ever true on process 1: no cut satisfies — Definitely false.
	evs, procs = build(func(p, i int) bool { return p == 0 })
	v, _ = replay(t, rand.New(rand.NewSource(2)), Spec{Pred: "all(x)", Procs: procs}, evs)
	if v.Possibly || !v.DefinitelyKnown || v.Definitely {
		t.Fatalf("never-true trace: verdict %+v, want Definitely false (known)", v)
	}

	// Satisfied mid-stream but not at the final cut: Possibly true, and
	// the session honestly reports it cannot decide Definitely.
	evs, procs = build(func(p, i int) bool { return i == 1 })
	v, _ = replay(t, rand.New(rand.NewSource(3)), Spec{Pred: "all(x)", Procs: procs}, evs)
	if !v.Possibly || v.DefinitelyKnown {
		t.Fatalf("mid-stream trace: verdict %+v, want Possibly true, Definitely unknown", v)
	}
}

// TestSlicedSessionMatchesSlicer is the reference for the endpoint rule a
// conjunctive session closes with. Random computations go through a
// session that keeps no trace and through an incremental slicer
// (cs/0303010) fed the same delivered stream, with the involved
// processes all, every 2nd or every 3rd, and random truth on the
// uninvolved ones (which the session must ignore and the slicer is told
// to treat as true). Possibly must agree,
// and Definitely must be the slicer's: an empty slice is Definitely
// false, a slice whose top is the final cut is Definitely true, and any
// other slice leaves it unknown.
func TestSlicedSessionMatchesSlicer(t *testing.T) {
	outcomes := map[string]int{}
	for _, step := range []int{1, 2, 3} {
		for seed := int64(0); seed < 1000; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := randomComputation(seed)
			truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
			procs := c.NumProcs()
			var involved []int
			uninvolved := make([]bool, procs)
			for p := range truth {
				truth[p][0] = false // online sessions take initial states as false
				if p%step != 0 {
					uninvolved[p] = true
				} else if step > 1 {
					involved = append(involved, p)
				}
			}
			events := tableTrace(c, truth)
			v, _ := replay(t, rand.New(rand.NewSource(seed)),
				Spec{Pred: "all(x)", Procs: procs, Involved: involved}, events)

			sl := slicing.NewIncrementalSlicer(procs, uninvolved)
			final := make([]int, procs)
			for _, ev := range events { // tableTrace is a causal order
				if err := sl.Observe(ev.Proc, ev.VC, ev.Truth || uninvolved[ev.Proc]); err != nil {
					t.Fatalf("step %d seed %d: slicer: %v", step, seed, err)
				}
				final[ev.Proc]++
			}
			sl.Seal()
			var want Verdict
			switch {
			case !sl.Possibly():
				want.DefinitelyKnown = true
				outcomes["false"]++
			case slices.Equal(sl.Top(), final):
				want.Definitely, want.DefinitelyKnown = true, true
				outcomes["true"]++
			default:
				outcomes["unknown"]++
			}
			if v.Possibly != sl.Possibly() || v.Definitely != want.Definitely || v.DefinitelyKnown != want.DefinitelyKnown {
				t.Errorf("step %d seed %d: session %+v, slicer possibly=%v definitely=%v known=%v",
					step, seed, v, sl.Possibly(), want.Definitely, want.DefinitelyKnown)
			}
		}
	}
	for _, o := range []string{"false", "true", "unknown"} {
		if outcomes[o] == 0 {
			t.Errorf("no seed produced the %s outcome: %v", o, outcomes)
		}
	}
}

// TestSliceSpecValidate pins the spec-level gates. "slice" is accepted
// and ignored: a spec carrying it opens wherever the same spec without
// it does, and closes with the same verdict. No session is wider than a
// frame can carry a clock for.
func TestSliceSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"regular", Spec{Pred: "all(x)", Procs: 2, Slice: true}, ""},
		{"retain", Spec{Pred: "all(x)", Procs: 2, Slice: true, Retain: true}, ""},
		{"sum", Spec{Pred: "sum(x) == 1", Procs: 2, Slice: true}, ""},
		{"inflight", Spec{Pred: "inflight == 0", Procs: 2, Slice: true}, ""},
		{"mux", Spec{Mux: true, Procs: 2, Slice: true}, ""},
		{"procs 2^19", Spec{Pred: "all(x)", Procs: 1 << 19}, ""},
		{"procs 2^19+1", Spec{Pred: "all(x)", Procs: 1<<19 + 1}, "procs <= 524288"},
		{"procs 2^22", Spec{Pred: "sum(x) >= 1", Procs: 1 << 22}, "procs <= 524288"},
		{"procs MaxInt32", Spec{Pred: "all(x)", Procs: math.MaxInt32}, "procs <= 524288"},
		{"mux procs 2^19", Spec{Mux: true, Procs: 1 << 19}, ""},
		{"mux procs 2^19+1", Spec{Mux: true, Procs: 1<<19 + 1}, "procs <= 524288"},
		{"mux procs 2^22", Spec{Mux: true, Procs: 1 << 22}, "procs <= 524288"},
		{"mux procs MaxInt32", Spec{Mux: true, Procs: math.MaxInt32}, "procs <= 524288"},
	}
	evs := []Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Val: 1, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Val: 1, Truth: true},
		{Proc: 0, VC: []int64{2, 0}, Var: "x", Val: 0},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			if tc.spec.Slice {
				plain := tc.spec
				plain.Slice = false
				if got, want := sliceVerdict(t, tc.spec, evs), sliceVerdict(t, plain, evs); got != want {
					t.Errorf("%s: verdict %+v with slice, %+v without", tc.name, got, want)
				}
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// sliceVerdict opens a session (registering all(x) on a mux one), steps
// evs in order and returns the close verdict.
func sliceVerdict(t *testing.T, spec Spec, evs []Event) Verdict {
	t.Helper()
	s, err := NewSession(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	if spec.Mux {
		if err := s.Register(mux.Registration{ID: "p", Spec: pred.Spec{Family: pred.Conjunctive, Var: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range evs {
		if err := s.Step(ev); err != nil {
			t.Fatalf("%+v: step: %v", spec, err)
		}
	}
	v, err := s.Finalize()
	if err != nil {
		t.Fatalf("%+v: close: %v", spec, err)
	}
	return v
}

// ringTrace builds a causally chained trace: event i happens on process
// i%procs and receives from event i-1, so the computation is one total
// order and the detector window stays small. Truth follows i%5 != 0, so
// satisfying cuts recur.
func ringTrace(procs, n int) []Event {
	counts := make([]int64, procs)
	prev := make([]int64, procs)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		p := i % procs
		vc := make([]int64, procs)
		copy(vc, prev)
		counts[p]++
		vc[p] = counts[p]
		evs = append(evs, Event{Proc: p, VC: vc, Truth: i%5 != 0})
		prev = vc
	}
	return evs
}

// TestSlicedSessionBoundsMemory is the memory-economy contract at test
// scale (the 1M-event version is BenchmarkLongSession): over a long
// causally chained stream a session without retain holds no history
// while the retaining control grows linearly.
func TestSlicedSessionBoundsMemory(t *testing.T) {
	const procs, n = 4, 4000
	evs := ringTrace(procs, n)

	s, err := NewSession(Spec{Pred: "all(x)", Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	maxRetained := 0
	for i, ev := range evs {
		if err := s.Step(ev); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if i%64 == 63 {
			s.Flush()
			if r := s.RetainedEvents(); r > maxRetained {
				maxRetained = r
			}
		}
	}
	v, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Possibly {
		t.Fatal("ring trace has satisfying cuts; Possibly is false")
	}
	if maxRetained != 0 {
		t.Fatalf("session held %d events at peak (%d streamed); it must hold none", maxRetained, n)
	}

	ctrl, err := NewSession(Spec{Pred: "all(x)", Procs: procs, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := ctrl.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctrl.RetainedEvents(); got != n {
		t.Fatalf("retaining control holds %d events, want all %d", got, n)
	}
}

// TestMuxSlicedRegistrations pins what "slice": true on register means:
// nothing. Over a live engine, sliced registrations of a regular and
// a non-regular predicate are admitted before and after the first append,
// each latches exactly as its unsliced twin does, and no history is held
// in the session (RetainedEvents, on an in-process twin fed the same
// requests). The benchmark's mux_fanout workload relies on this contract.
func TestMuxSlicedRegistrations(t *testing.T) {
	_, cl := serveLoopback(t, Config{Shards: 1})
	local, err := NewSession(Spec{Mux: true, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	updates := make(map[string][]mux.Update)
	record := func(ups []mux.Update) {
		for _, u := range ups {
			updates[u.ID] = append(updates[u.ID], u)
		}
	}
	preds := []string{"all(v)", "sum(v) >= 1"}
	id := func(stage string, i int, slice bool) string { return fmt.Sprintf("%s-%d-%v", stage, i, slice) }
	register := func(stage string) {
		for i, text := range preds {
			ps, err := pred.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			for _, slice := range []bool{true, false} {
				ups, err := cl.RegisterPredicate("m", RegisterSpec{ID: id(stage, i, slice), Pred: text, Slice: slice})
				if err != nil {
					t.Fatalf("%s register %s (slice %v): %v", stage, text, slice, err)
				}
				record(ups)
				if err := local.Register(mux.Registration{ID: id(stage, i, slice), Spec: ps, Slice: slice}); err != nil {
					t.Fatalf("%s in-process register %s (slice %v): %v", stage, text, slice, err)
				}
			}
		}
	}
	check := func(when string) {
		_, ups, err := cl.QueryUpdates("m")
		if err != nil {
			t.Fatal(err)
		}
		record(ups)
		if got := local.RetainedEvents(); got != 0 {
			t.Errorf("%s: RetainedEvents = %d, want 0", when, got)
		}
	}
	appendRound := func(evs ...Event) {
		if _, err := cl.Append("m", evs); err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := local.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		local.Flush()
	}

	register("early")
	check("before the first append")
	appendRound(Event{Proc: 0, VC: []int64{1, 0}, Var: "v"}, Event{Proc: 1, VC: []int64{0, 1}, Var: "v"})
	check("after the first append")
	register("late")
	check("after the late registrations")
	appendRound(Event{Proc: 0, VC: []int64{2, 0}, Var: "v", Val: 1, Truth: true}) // sum(v) >= 1 holds
	check("after the second append")
	appendRound(Event{Proc: 1, VC: []int64{0, 2}, Var: "v", Val: 1, Truth: true}) // all(v) holds
	check("after the third append")
	if _, final, err := cl.ClosePredicates("m"); err != nil || len(final) != 8 {
		t.Fatalf("close: %d final states, err %v; want all 8 registrations", len(final), err)
	}

	for _, stage := range []string{"early", "late"} {
		for i, text := range preds {
			sliced, plain := updates[id(stage, i, true)], updates[id(stage, i, false)]
			if len(plain) == 0 {
				t.Errorf("%s %s: the unsliced registration never latched", stage, text)
			}
			if len(sliced) != len(plain) {
				t.Errorf("%s %s: %d updates with slice, %d without", stage, text, len(sliced), len(plain))
				continue
			}
			for k := range plain {
				a, b := sliced[k], plain[k]
				if a.Seq != b.Seq || a.Possibly != b.Possibly || a.Err != b.Err {
					t.Errorf("%s %s: update %d with slice %+v, without %+v", stage, text, k, a, b)
				}
			}
		}
	}
}

// TestEngineSliceMetrics closes sessions without retain through the
// engine and checks the endpoint verdicts on the close reply: known-true when the
// final cut satisfies the predicate, known-false when Possibly never
// latched, and unknown when only some intermediate cut satisfies it.
func TestEngineSliceMetrics(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	defer e.Shutdown()

	for _, tc := range []struct {
		name                        string
		evs                         []Event
		possibly, definitely, known bool
	}{
		{"final cut satisfies", ringTrace(2, 400), true, true, true}, // event 399 is true, and so is 398
		{"never satisfied", []Event{
			{Proc: 0, VC: []int64{1, 0}, Truth: true},
			{Proc: 1, VC: []int64{1, 1}},
			{Proc: 0, VC: []int64{2, 1}},
		}, false, false, true},
		{"satisfied mid-stream only", []Event{
			{Proc: 0, VC: []int64{1, 0}, Truth: true},
			{Proc: 1, VC: []int64{0, 1}, Truth: true},
			{Proc: 1, VC: []int64{0, 2}},
		}, true, false, false},
	} {
		if err := e.Open(tc.name, Spec{Pred: "all(x)", Procs: 2}); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(tc.name, tc.evs); err != nil {
			t.Fatal(err)
		}
		v, _, err := e.ClosePredicates(tc.name)
		if err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if v.Possibly != tc.possibly || v.Definitely != tc.definitely || v.DefinitelyKnown != tc.known {
			t.Errorf("%s: verdict %+v, want possibly=%v definitely=%v known=%v",
				tc.name, v, tc.possibly, tc.definitely, tc.known)
		}
	}
}

// TestEngineRetainedEventsSLO: a retaining session whose trace outgrows
// the budget fires the retained_events rule.
func TestEngineRetainedEventsSLO(t *testing.T) {
	breaches := make(chan string, 4)
	e := NewEngine(Config{Shards: 1, SLO: SLOConfig{
		RetainedEvents: 8,
		OnBreach:       func(rule, detail, path string) { breaches <- rule },
	}})
	defer e.Shutdown()

	if err := e.Open("a", Spec{Pred: "all(x)", Procs: 2, Retain: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("a", ringTrace(2, 9)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.QueryUpdates("a"); err != nil { // forces a publish
		t.Fatal(err)
	}
	select {
	case rule := <-breaches:
		if rule != SLORetainedEvents {
			t.Fatalf("breach rule %q, want %q", rule, SLORetainedEvents)
		}
	default:
		t.Fatal("retained_events SLO did not fire")
	}
}

// BenchmarkLongSession is the memory-economy benchmark the CI gate
// parses: a million-event causally chained stream through a plain
// session versus a retaining control. The retained-events-max metric
// must read 0 for the plain variant (it holds no history) while the
// control reports the full stream length.
func BenchmarkLongSession(b *testing.B) {
	const procs, n = 4, 1_200_000
	b.Run("plain", func(b *testing.B) { benchLongSession(b, false, procs, n) })
	b.Run("control", func(b *testing.B) { benchLongSession(b, true, procs, n) })
}

func benchLongSession(b *testing.B, retain bool, procs, n int) {
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		spec := Spec{Pred: "all(x)", Procs: procs, Retain: retain}
		s, err := NewSession(spec)
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]int64, procs)
		prev := make([]int64, procs)
		maxRetained := 0
		for i := 0; i < n; i++ {
			p := i % procs
			vc := make([]int64, procs)
			copy(vc, prev)
			counts[p]++
			vc[p] = counts[p]
			if err := s.Step(Event{Proc: p, VC: vc, Truth: i%5 != 0}); err != nil {
				b.Fatal(err)
			}
			prev = vc
			if i%256 == 255 {
				s.Flush()
				if r := s.RetainedEvents(); r > maxRetained {
					maxRetained = r
				}
			}
		}
		s.Flush()
		if r := s.RetainedEvents(); r > maxRetained {
			maxRetained = r
		}
		if !retain {
			v, err := s.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			if !v.Possibly {
				b.Fatal("plain session missed the satisfying cuts")
			}
		}
		// The retaining control skips Finalize: its close-time Definitely
		// rebuild is a different (and much bigger) cost than the memory
		// growth this benchmark isolates.
		b.ReportMetric(float64(maxRetained), "retained-events-max")
	}
	b.SetBytes(int64(n))
}
