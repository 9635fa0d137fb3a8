package main

import (
	"fmt"
	"math/rand"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// Every input comes from the run's seed: the same seed gives byte-identical
// request frames, and the server receives nothing but generated frames.

// dep names one cross-process causal predecessor of a generated event.
type dep struct {
	proc    int
	index   int64 // 1-based local index of the predecessor
	message bool  // a message edge (send -> this receive), else a plain order edge
}

// source simulates an instrumented application: processes with online
// vector clocks emitting events in a causally consistent order. The two
// closed-loop workloads draw their endless in-order streams from it.
type source struct {
	rng   *rand.Rand
	procs int
	vcs   [][]int64
	next  func(s *source) // appends one or two events to out/deps
	count int             // events emitted so far
	out   []stream.Event
	deps  []dep // deps[i] belongs to out[i]; proc -1 means none
}

func newSource(seed int64, procs int, next func(*source)) *source {
	s := &source{rng: rand.New(rand.NewSource(seed)), procs: procs, vcs: make([][]int64, procs), next: next}
	for p := range s.vcs {
		s.vcs[p] = make([]int64, procs)
	}
	return s
}

// emit advances process p's clock, first merging the clock of the
// predecessor d (if any), and appends the event.
func (s *source) emit(p int, d dep, ev stream.Event) {
	if d.proc >= 0 {
		for r, v := range s.vcs[d.proc] {
			if v > s.vcs[p][r] {
				s.vcs[p][r] = v
			}
		}
	}
	s.vcs[p][p]++
	s.count++
	ev.Proc = p
	ev.VC = append([]int64(nil), s.vcs[p]...)
	s.out = append(s.out, ev)
	s.deps = append(s.deps, d)
}

// latest is the dependency on process q's most recent event (none if q
// has not moved yet).
func (s *source) latest(q int, message bool) dep {
	if s.vcs[q][q] == 0 {
		return dep{proc: -1}
	}
	return dep{proc: q, index: s.vcs[q][q], message: message}
}

// frame returns the next n events and their dependencies.
func (s *source) frame(n int) ([]stream.Event, []dep) {
	for len(s.out) < n {
		s.next(s)
	}
	evs, deps := s.out[:n:n], s.deps[:n:n]
	s.out, s.deps = s.out[n:], s.deps[n:]
	return evs, deps
}

// ingest_wire: one 0/1 variable per process moving in unit steps, so
// sum(x) stays within [0, procs] and the session's sum(x) == -1 can never
// latch. Processes take turns and every seventh event also learns its ring
// neighbour's clock (the shape of BenchmarkStreamIngest): knowledge travels
// round the ring quickly, the detector prunes its window to a few dozen
// events, and detection stays a small part of the cost. The seed draws
// the values.
const (
	ingestProcs = 8
	ingestPred  = "sum(x) == -1"
)

func ingestNext(s *source) {
	p := s.count % s.procs
	d := dep{proc: -1}
	if s.count%7 == 0 {
		d = s.latest((p+1)%s.procs, false)
	}
	s.emit(p, d, stream.Event{Val: int64(s.rng.Intn(2))})
}

// mux_fanout: 16 tagged 0/1 variables plus channel occupancy. The stream
// opens with every process setting every variable true once, so all(v)
// and xor(v) latch within the first 128 events — inside the oracle prefix
// — and nothing else ever does; a tenth of the later steps are a send
// immediately followed by its receive.
const (
	muxProcs = 8
	muxVars  = 16
	muxPreds = 1024
	muxNever = 1 << 40 // threshold no sum or occupancy reaches
)

func muxVar(i int) string { return fmt.Sprintf("v%d", i) }

func muxNext(s *source) {
	if n := s.count; n < muxVars*muxProcs {
		s.emit(n%muxProcs, dep{proc: -1}, stream.Event{Var: muxVar(n / muxProcs), Val: 1, Truth: true})
		return
	}
	p := s.rng.Intn(s.procs)
	if s.rng.Intn(10) == 0 {
		q := (p + 1 + s.rng.Intn(s.procs-1)) % s.procs
		s.emit(p, dep{proc: -1}, stream.Event{Var: detect.InFlightVar, Val: 1})
		s.emit(q, s.latest(p, true), stream.Event{Var: detect.InFlightVar, Val: -1})
		return
	}
	val := int64(s.rng.Intn(2))
	s.emit(p, dep{proc: -1}, stream.Event{Var: muxVar(s.rng.Intn(muxVars)), Val: val, Truth: val != 0})
}

// muxPred is one registration of the mux_fanout workload.
type muxPred struct {
	reg     stream.RegisterSpec
	spec    pred.Spec
	latches bool // expected to latch (all, xor); everything else never does
}

// muxPredicates builds the 1024 registrations: per 16, one all(v)
// (sliced; the four tenants' copies share the variable's slicer), six
// sum, six count, one xor and two inflight. all and xor latch at once and
// stop being stepped, so 7/8 of the predicates stay active to the end.
func muxPredicates(n int) []muxPred {
	out := make([]muxPred, n)
	for i := range out {
		v := muxVar((i / 16) % muxVars)
		var text string
		slice, latches := false, false
		switch k := i % 16; {
		case k < 1:
			text, slice, latches = fmt.Sprintf("all(%s)", v), true, true
		case k < 7:
			text = fmt.Sprintf("sum(%s) >= %d", v, int64(muxNever))
		case k < 13:
			text = fmt.Sprintf("count(%s) >= %d", v, muxProcs+1)
		case k < 14:
			text, latches = fmt.Sprintf("xor(%s)", v), true
		default:
			text = fmt.Sprintf("inflight >= %d", int64(muxNever))
		}
		ps, err := pred.Parse(text)
		if err != nil {
			panic(err) // the texts above are fixed and well-formed
		}
		out[i] = muxPred{
			reg:     stream.RegisterSpec{ID: fmt.Sprintf("p%04d", i), Tenant: fmt.Sprintf("tenant-%d", (i+i/16)%4), Pred: text, Slice: slice},
			spec:    ps,
			latches: latches,
		}
	}
	return out
}

// nextReregistrable walks the registrations from *cursor to the next one
// that may be detached and attached again mid-stream: never latching, and
// unsliced (sliced registrations must precede the first event).
func nextReregistrable(preds []muxPred, cursor *int) muxPred {
	for {
		p := preds[*cursor%len(preds)]
		*cursor++
		if !p.reg.Slice && !p.latches {
			return p
		}
	}
}

// computationOf rebuilds the sealed computation a generated prefix
// describes, carrying every variable forward, so gpd.Detect can serve as
// the oracle for it. It fails if the computation's own clocks disagree
// with the generator's.
func computationOf(procs int, evs []stream.Event, deps []dep, single string) (*computation.Computation, error) {
	c := computation.New()
	for p := 0; p < procs; p++ {
		c.AddProcess()
	}
	ids := make([]computation.EventID, len(evs))
	for i, ev := range evs {
		ids[i] = c.AddInternal(computation.ProcID(ev.Proc))
	}
	for i, d := range deps {
		if d.proc < 0 {
			continue
		}
		from := c.EventAt(computation.ProcID(d.proc), int(d.index)).ID
		var err error
		if d.message {
			err = c.AddMessage(from, ids[i])
		} else {
			err = c.AddEdge(from, ids[i])
		}
		if err != nil {
			return nil, err
		}
	}
	cur := make([]map[string]int64, procs)
	for p := range cur {
		cur[p] = map[string]int64{}
	}
	names := map[string]bool{}
	for i, ev := range evs {
		name := ev.Var
		if name == "" {
			name = single
		}
		if name != detect.InFlightVar {
			cur[ev.Proc][name] = ev.Val
			names[name] = true
		}
		for n := range names {
			c.SetVar(n, ids[i], cur[ev.Proc][n])
		}
	}
	// A variable first written late must still read 0 on earlier events;
	// SetVar leaves unset entries at zero, which is that.
	if err := c.Seal(); err != nil {
		return nil, err
	}
	for i, ev := range evs {
		clk := c.Clock(ids[i]) // counts initial events; the online convention does not
		for q, v := range ev.VC {
			if want := max(int64(clk[q])-1, 0); want != v {
				return nil, fmt.Errorf("generator clock %v disagrees with computation clock %v at event %d", ev.VC, clk, i)
			}
		}
	}
	return c, nil
}

// verdict_scrambled: short sessions from gen.Random computations.
const (
	vsProcs      = 16
	vsEvents     = 16 // per process
	vsFrame      = 8
	vsMsgFrac    = 0.3
	vsFrameGap   = 2_000_000 // ns between frames of one connection
	vsSlots      = vsProcs*vsEvents/vsFrame + 2
	vsSessionGap = vsSlots * vsFrameGap // one open slot, the frames, one close slot
)

// sessionPlan is everything one short session needs: what to send, in
// which order, and what the oracle says must come back.
type sessionPlan struct {
	id      string
	spec    stream.Spec
	comp    *computation.Computation // kept for the traced run's offline slice
	frames  [][]stream.Event
	witness int // frame after which Possibly latches; -1: never, or already at open

	possibly   bool
	checkDef   bool // Definitely is decided at close (retain) or may be (slice)
	definitely bool
}

// planSession fabricates session j of the run: computation, predicate
// (the five shapes rotate), scrambled send order, oracle and witness.
func planSession(seed int64, j int) (*sessionPlan, error) {
	s := seed*1_000_003 + int64(j)
	rng := rand.New(rand.NewSource(s))
	c := gen.Random(gen.Params{Seed: s, Procs: vsProcs, Events: vsEvents, MsgFrac: vsMsgFrac})
	const name = "x"
	plan := &sessionPlan{id: fmt.Sprintf("vs-%d-%d", seed, j), comp: c}
	var ps pred.Spec
	falseStart := func() {
		for p := 0; p < vsProcs; p++ { // online conjunctive sessions take initial states as false
			c.SetVar(name, c.Initial(computation.ProcID(p)).ID, 0)
		}
	}
	switch j % 5 {
	case 0: // all(x), trace retained: Definitely decided at close by the rebuild
		gen.BoolVar(s, c, name, 0.35)
		falseStart()
		ps = pred.Spec{Family: pred.Conjunctive, Var: name}
		plan.spec = stream.Spec{Pred: ps.String(), Procs: vsProcs, Retain: true}
		plan.checkDef = true
	case 1: // all(x), sliced: Definitely decided by the sealed slice when it can
		gen.BoolVar(s, c, name, 0.35)
		falseStart()
		ps = pred.Spec{Family: pred.Conjunctive, Var: name}
		plan.spec = stream.Spec{Pred: ps.String(), Procs: vsProcs, Slice: true}
		plan.checkDef = true
	case 2: // sum(x) == k: three in four reach k, the fourth aims one past the maximum
		gen.UnitStepVar(s, c, name)
		_, k := relsum.SumRange(c, name)
		if j%4 == 3 {
			k++
		}
		ps = pred.Spec{Family: pred.Sum, Var: name, Rel: gpd.Eq, K: k}
		plan.spec = stream.Spec{Pred: ps.String(), Procs: vsProcs}
	case 3: // levels(x): all but one process true at once, or all
		gen.BoolVar(s, c, name, 0.35)
		ps = pred.Spec{Family: pred.Levels, Var: name, Levels: []int{vsProcs - 1, vsProcs}}
		plan.spec = stream.Spec{Pred: ps.String(), Procs: vsProcs}
	default: // inflight >= k for the maximum occupancy, or one past it
		rep, err := gpd.Detect(c, pred.Spec{Family: pred.InFlight, Rel: gpd.Ge, K: 0})
		if err != nil {
			return nil, err
		}
		k := rep.Max
		if j%4 == 3 {
			k++
		}
		ps = pred.Spec{Family: pred.InFlight, Rel: gpd.Ge, K: k}
		plan.spec = stream.Spec{Pred: ps.String(), Procs: vsProcs}
	}
	entry, ok := detect.Lookup(ps.Family, detect.ModalityPossibly)
	if !ok {
		return nil, fmt.Errorf("no detector for %v", ps.Family)
	}
	events, cfg, err := entry.Linearize(c, ps)
	if err != nil {
		return nil, err
	}
	plan.spec.Init = cfg.Init
	events = scramble(rng, vsProcs, events)
	for len(events) > 0 {
		n := min(vsFrame, len(events))
		plan.frames = append(plan.frames, events[:n])
		events = events[n:]
	}

	rep, err := gpd.Detect(c, ps)
	if err != nil {
		return nil, err
	}
	plan.possibly = rep.Holds
	if plan.checkDef {
		def, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			return nil, err
		}
		plan.definitely = def.Holds
	}

	// The witness frame: replay the send order through an in-process
	// session, flushing per frame, and note where the verdict latches.
	sess, err := stream.NewSession(plan.spec)
	if err != nil {
		return nil, err
	}
	plan.witness = -1
	if !sess.Possibly() {
		for f, frame := range plan.frames {
			for _, ev := range frame {
				if err := sess.Step(ev); err != nil {
					return nil, err
				}
			}
			if sess.Flush() {
				plan.witness = f
				break
			}
		}
	}
	return plan, nil
}

// scramble ships each process's events as one burst, the processes in
// random order — an application whose processes batch their logs. Local
// order survives (the protocol requires it); causal order across processes
// does not: a receive whose sender ships later waits in the server's
// holdback buffer with everything behind it on that process.
func scramble(rng *rand.Rand, procs int, events []stream.Event) []stream.Event {
	per := make([][]stream.Event, procs)
	for _, ev := range events {
		per[ev.Proc] = append(per[ev.Proc], ev)
	}
	out := make([]stream.Event, 0, len(events))
	for _, p := range rng.Perm(procs) {
		out = append(out, per[p]...)
	}
	return out
}
