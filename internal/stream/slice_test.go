package stream

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// TestSlicedSessionAgreesWithRetain replays random computations through a
// sliced session and a retaining control and pins their agreement: same
// Possibly always; and whenever the sealed slice claims Definitely, it
// must match the control's exact offline answer.
func TestSlicedSessionAgreesWithRetain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(seed)
		truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
		for p := range truth {
			truth[p][0] = false // online sessions take initial states as false
		}
		events := tableTrace(c, truth)

		ctrl, _ := replay(t, rand.New(rand.NewSource(seed)),
			Spec{Pred: "all(x)", Procs: c.NumProcs(), Retain: true}, events)
		v, s := replay(t, rand.New(rand.NewSource(seed)),
			Spec{Pred: "all(x)", Procs: c.NumProcs(), Slice: true}, events)

		if v.Possibly != ctrl.Possibly {
			t.Errorf("seed %d: Possibly: sliced=%v retain=%v", seed, v.Possibly, ctrl.Possibly)
		}
		if v.DefinitelyKnown && v.Definitely != ctrl.Definitely {
			t.Errorf("seed %d: slice decided Definitely=%v, offline says %v", seed, v.Definitely, ctrl.Definitely)
		}
		if !v.Possibly && !v.DefinitelyKnown {
			t.Errorf("seed %d: empty slice must decide Definitely false", seed)
		}
		if v.SliceCompacted != int64(len(events)) {
			t.Errorf("seed %d: compaction ledger %d, want every event (%d)", seed, v.SliceCompacted, len(events))
		}
		if s.SliceRetained() != 0 {
			t.Errorf("seed %d: %d events retained after the sealed finalize", seed, s.SliceRetained())
		}
	}
}

// TestSlicedSessionDefinitely pins the two close-time outcomes the sealed
// slice can decide without a retained trace.
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
	// satisfying cut — Definitely true straight from the slice top.
	evs, procs := build(func(p, i int) bool { return true })
	v, _ := replay(t, rand.New(rand.NewSource(1)), Spec{Pred: "all(x)", Procs: procs, Slice: true}, evs)
	if !v.Possibly || !v.DefinitelyKnown || !v.Definitely {
		t.Fatalf("all-true trace: verdict %+v, want Definitely true (known)", v)
	}

	// No event ever true on process 1: the slice is empty — Definitely false.
	evs, procs = build(func(p, i int) bool { return p == 0 })
	v, _ = replay(t, rand.New(rand.NewSource(2)), Spec{Pred: "all(x)", Procs: procs, Slice: true}, evs)
	if v.Possibly || !v.DefinitelyKnown || v.Definitely {
		t.Fatalf("never-true trace: verdict %+v, want Definitely false (known)", v)
	}

	// Satisfied mid-stream but not at the final cut: Possibly true, and
	// the session honestly reports it cannot decide Definitely.
	evs, procs = build(func(p, i int) bool { return i == 1 })
	v, _ = replay(t, rand.New(rand.NewSource(3)), Spec{Pred: "all(x)", Procs: procs, Slice: true}, evs)
	if !v.Possibly || v.DefinitelyKnown {
		t.Fatalf("mid-stream trace: verdict %+v, want Possibly true, Definitely unknown", v)
	}
}

// TestSliceSpecValidate pins the spec-level gates: slicing composes with
// nothing that contradicts its memory promise or its regularity premise.
func TestSliceSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"regular", Spec{Pred: "all(x)", Procs: 2, Slice: true}, ""},
		{"retain", Spec{Pred: "all(x)", Procs: 2, Slice: true, Retain: true}, "mutually exclusive"},
		{"sum", Spec{Pred: "sum(x) == 1", Procs: 2, Slice: true}, "regular truth-payload"},
		{"inflight", Spec{Pred: "inflight == 0", Procs: 2, Slice: true}, "regular truth-payload"},
		{"mux", Spec{Mux: true, Procs: 2, Slice: true}, "register time"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// ringTrace builds a causally chained trace: event i happens on process
// i%procs and receives from event i-1, so the computation is one total
// order and compaction can always keep up. Truth follows i%5 != 0 —
// satisfying cuts recur, so the slice bottom keeps advancing.
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
// causally chained stream the sliced session's held history stays flat
// while the retaining control grows linearly.
func TestSlicedSessionBoundsMemory(t *testing.T) {
	const procs, n = 4, 4000
	evs := ringTrace(procs, n)

	s, err := NewSession(Spec{Pred: "all(x)", Procs: procs, Slice: true})
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
	if maxRetained > n/10 {
		t.Fatalf("sliced session held %d events at peak (%d streamed); compaction is not keeping up", maxRetained, n)
	}
	if v.SliceCompacted != int64(n) {
		t.Fatalf("compaction ledger %d, want %d", v.SliceCompacted, n)
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

// TestMuxSlicedRegistrations drives sliced registrations through the
// stream session surface: sharing, validation errors, and the close-time
// seal releasing the frontier.
func TestMuxSlicedRegistrations(t *testing.T) {
	ps, err := pred.Parse("all(x)")
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(Spec{Mux: true, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mux.Registration{ID: "a", Spec: ps, Slice: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mux.Registration{ID: "b", Spec: ps, Slice: true}); err != nil {
		t.Fatal(err)
	}
	sum, err := pred.Parse("sum(x) == 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mux.Registration{ID: "s", Spec: sum, Slice: true}); !errors.Is(err, slicing.ErrNotRegular) {
		t.Fatalf("sliced sum registration: error %v, want ErrNotRegular", err)
	}

	for i := int64(1); i <= 8; i++ {
		evs := []Event{
			{Proc: 0, VC: []int64{i, 0}, Var: "x", Truth: i%2 == 0},
			{Proc: 1, VC: []int64{0, i}, Var: "x", Truth: i%2 == 0},
		}
		for _, ev := range evs {
			if err := s.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
	}
	st := s.MuxStats()
	if st.SliceRetained == 0 {
		t.Fatal("mux stats report no slice frontier while the stream is open")
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.RetainedEvents(); got != 0 {
		t.Fatalf("finalized mux session still holds %d events; seal did not release the frontier", got)
	}
	if s.SliceCompacted() != 16 {
		t.Fatalf("compaction ledger %d, want 16", s.SliceCompacted())
	}

	// Sliced registrations are only legal before the first event.
	late, err := NewSession(Spec{Mux: true, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Step(Event{Proc: 0, VC: []int64{1, 0}, Var: "x", Truth: true}); err != nil {
		t.Fatal(err)
	}
	if err := late.Register(mux.Registration{ID: "late", Spec: ps, Slice: true}); err == nil {
		t.Fatal("mid-stream sliced registration accepted")
	}
}

// TestEngineSliceMetrics drives a sliced session through the engine and
// checks the metrics contract: the compaction counter accumulates and the
// retained gauge walks back to zero when the close-time seal releases the
// frontier.
func TestEngineSliceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(Config{Shards: 1, Metrics: reg})
	defer e.Shutdown()

	if err := e.Open("a", Spec{Pred: "all(x)", Procs: 2, Slice: true}); err != nil {
		t.Fatal(err)
	}
	evs := ringTrace(2, 400)
	if err := e.Append("a", evs); err != nil {
		t.Fatal(err)
	}
	st, _, err := e.QueryUpdates("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.SliceRetained == 0 && st.SliceCompacted == 0 {
		t.Fatalf("mid-stream stats show no slice activity: %+v", st)
	}
	v, _, err := e.ClosePredicates("a")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Possibly {
		t.Fatalf("verdict: %+v", v)
	}
	if got := reg.Counter("slice_compacted_events_total").Value(); got != int64(len(evs)) {
		t.Fatalf("slice_compacted_events_total = %d, want %d", got, len(evs))
	}
	if got := reg.Gauge("slice_retained_events").Value(); got != 0 {
		t.Fatalf("slice_retained_events = %d after close, want 0", got)
	}
}

// TestEngineRetainedEventsSLO: a sliced session whose frontier outgrows
// the budget fires the retained_events rule.
func TestEngineRetainedEventsSLO(t *testing.T) {
	breaches := make(chan string, 4)
	e := NewEngine(Config{Shards: 1, SLO: SLOConfig{
		RetainedEvents: 8,
		OnBreach:       func(rule, detail, path string) { breaches <- rule },
	}})
	defer e.Shutdown()

	// No communication and alternating truth: the conjunction is never
	// satisfied, the slice bottom cannot advance, and the frontier grows
	// past the budget.
	if err := e.Open("a", Spec{Pred: "all(x)", Procs: 2, Slice: true}); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for i := int64(1); i <= 32; i++ {
		evs = append(evs,
			Event{Proc: 0, VC: []int64{i, 0}, Truth: false},
			Event{Proc: 1, VC: []int64{0, i}, Truth: true},
		)
	}
	if err := e.Append("a", evs); err != nil {
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
// parses: a million-event causally chained stream through a sliced
// session versus a retaining control. The retained-events/max metric
// must stay flat (O(slice)) for the sliced variant while the control
// reports the full stream length.
func BenchmarkLongSession(b *testing.B) {
	const procs, n = 4, 1_200_000
	b.Run("sliced", func(b *testing.B) { benchLongSession(b, true, procs, n) })
	b.Run("control", func(b *testing.B) { benchLongSession(b, false, procs, n) })
}

func benchLongSession(b *testing.B, sliced bool, procs, n int) {
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		spec := Spec{Pred: "all(x)", Procs: procs, Slice: sliced, Retain: !sliced}
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
		if sliced {
			v, err := s.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			if !v.Possibly {
				b.Fatal("sliced session missed the satisfying cuts")
			}
			b.ReportMetric(float64(v.SliceCompacted), "compacted-events")
		}
		// The retaining control skips Finalize: its close-time Definitely
		// rebuild is a different (and much bigger) cost than the memory
		// growth this benchmark isolates.
		b.ReportMetric(float64(maxRetained), "retained-events-max")
	}
	b.SetBytes(int64(n))
}
