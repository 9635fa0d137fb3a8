package detect

import (
	"fmt"
	"slices"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Kernel decides a predicate on a sealed computation under one
// modality.
type Kernel func(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error)

// Entry binds one predicate family to its detectors.
type Entry struct {
	// Family keys the entry.
	Family pred.Family
	// Caps are the entry's capability flags.
	Caps Caps
	// Possibly and Definitely decide the predicate offline under each
	// modality with the family's batch algorithm on a sealed
	// computation.
	Possibly, Definitely Kernel
	// New builds the incremental detector (nil unless Caps.Incremental).
	// It latches Possibly online and decides Definitely from the
	// stream's endpoints (Finalizer) where they suffice.
	New func(s pred.Spec, cfg Config) (Detector, error)
	// View builds the same detector over a caller-owned range core, so
	// a transport multiplexing many predicates of one variable steps
	// and flushes one core for all of them (nil unless the family is
	// range-based; New is then View over a private core).
	View func(s pred.Spec, core *RangeCore) *RangeView
	// Linearize replays a sealed computation as the delivered-event
	// stream an instrumented application would have produced, plus the
	// session configuration matching it (nil unless Caps.Incremental).
	Linearize func(c *computation.Computation, s pred.Spec) ([]Event, Config, error)
	// SlicePossibly and SliceDefinitely decide the predicate through its
	// computation slice (nil unless Caps.Sliceable). The route may still
	// reject individual specs that fall outside the family's regular
	// fragment, with an error wrapping slicing.ErrNotRegular.
	SlicePossibly, SliceDefinitely Kernel
}

var registry = make(map[pred.Family]Entry)

// Register adds an entry to the registry. It panics on a duplicate
// family or a structurally incomplete entry; families register from
// init functions, so a bad registration fails fast at program start.
func Register(e Entry) {
	if _, dup := registry[e.Family]; dup {
		panic(fmt.Sprintf("detect: duplicate registration for %v", e.Family))
	}
	if e.Possibly == nil || e.Definitely == nil {
		panic(fmt.Sprintf("detect: registration for %v has no batch detector for both modalities", e.Family))
	}
	if e.Caps.Incremental && (e.New == nil || e.Linearize == nil) {
		panic(fmt.Sprintf("detect: incremental registration for %v needs New and Linearize", e.Family))
	}
	if e.Caps.Sliceable != (e.SlicePossibly != nil) || e.Caps.Sliceable != (e.SliceDefinitely != nil) {
		panic(fmt.Sprintf("detect: registration for %v must set both slice kernels iff Caps.Sliceable", e.Family))
	}
	registry[e.Family] = e
}

// Lookup resolves the entry for a family under a modality. Every family
// registers both modalities, so m only has to be one of the two.
func Lookup(f pred.Family, m Modality) (Entry, bool) {
	if m != ModalityPossibly && m != ModalityDefinitely {
		return Entry{}, false
	}
	e, ok := registry[f]
	return e, ok
}

// Batch resolves the registry entry for the spec's family and runs its
// offline algorithm under the modality. The zero Parallelism option
// resolves to GOMAXPROCS here — once, for every family — so the kernels
// always receive a concrete worker count.
func Batch(c *computation.Computation, s pred.Spec, m Modality, opt Options, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	opt.Parallelism = par.Limit(opt.Parallelism)
	if m == ModalityDefinitely {
		return e.Definitely(c, s, opt, tr)
	}
	return e.Possibly(c, s, opt, tr)
}

// Replay decides the predicate by driving the family's incremental
// detector over a causal linearization of the sealed computation — the
// same state machine a streaming session runs, end to end: linearize,
// step, flush, and under ModalityDefinitely the close of a retaining
// session: the detector's endpoints, then Residue on what they leave
// open. It errors for families without an incremental detector.
func Replay(c *computation.Computation, s pred.Spec, m Modality, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	if !e.Caps.Incremental {
		return Result{}, fmt.Errorf("detect: %v has no incremental detector; replay is unavailable", s.Family)
	}
	done := tr.Span("replay:" + s.Family.String())
	defer done()
	events, cfg, err := e.Linearize(c, s)
	if err != nil {
		return Result{}, err
	}
	det, err := e.New(s, cfg)
	if err != nil {
		return Result{}, err
	}
	if t, ok := det.(Traceable); ok {
		t.SetTrace(tr)
	}
	for _, ev := range events {
		if err := det.Step(ev); err != nil {
			return Result{}, fmt.Errorf("detect: replay: %w", err)
		}
	}
	det.Flush()
	snap := det.Snapshot()
	tr.Add("replay.events", int64(len(events)))
	res := Result{Holds: snap.Possibly, Min: snap.Min, Max: snap.Max, HasRange: snap.HasRange}
	if m == ModalityDefinitely {
		fin, ok := det.(Finalizer)
		if !ok {
			return Result{}, fmt.Errorf("detect: %v detector cannot decide definitely", s.Family)
		}
		holds, known := fin.EndpointDefinitely()
		if !known {
			if holds, _, err = Residue(s, cfg, events, tr); err != nil {
				return Result{}, err
			}
		}
		res.Holds = holds
	}
	return res, nil
}

// clockToVC converts a sealed computation's timestamp (which counts
// initial events) to the online vector-clock convention (which has no
// initial events): component q drops the initial event when present.
func clockToVC(clk []int32) []int64 {
	vc := make([]int64, len(clk))
	for q, v := range clk {
		if v >= 1 {
			vc[q] = int64(v) - 1
		}
	}
	return vc
}

// LinearizeEvents replays the non-initial events of a sealed
// computation in topological order, filling each event's payload via
// fill. Detectors re-establish causal order themselves behind a
// transport's holdback buffer, so any causality-respecting permutation
// of the result is also a valid stream.
func LinearizeEvents(c *computation.Computation, fill func(e computation.Event, ev *Event)) []Event {
	var out []Event
	for _, id := range c.Topo() {
		e := c.Event(id)
		if e.IsInitial() {
			continue
		}
		ev := Event{Proc: int(e.Proc), VC: clockToVC(c.Clock(id))}
		if fill != nil {
			fill(e, &ev)
		}
		out = append(out, ev)
	}
	return out
}

// Residue decides Definitely at the close of a delivered-event stream
// whose detector's endpoints left it open: the registry's Definitely
// batch kernel, run sequentially on the computation rebuilt from the
// stream (see rebuild). rebuilt is that computation's event count,
// initial events included.
func Residue(s pred.Spec, cfg Config, events []Event, tr *obs.Trace) (holds bool, rebuilt int, err error) {
	c, rs, err := rebuild(s, cfg, events)
	if err != nil {
		return false, 0, err
	}
	res, err := Batch(c, rs, ModalityDefinitely, Options{Parallelism: 1}, tr)
	return res.Holds, c.NumEvents(), err
}

// rebuild is the inverse of a family's Linearize: it reconstructs the
// sealed computation behind a delivered-event stream — the events in
// any causality-respecting order, cfg the configuration the detector
// was built from — and returns it with the spec that decides s on it
// under the registry's batch kernels. Each process gets one initial
// event plus its delivered events, with order edges derived from the
// timestamps (for each event and each other process, an edge from the
// latest event of that process in its causal past — their transitive
// closure is exactly the happened-before relation the timestamps
// encode). The payload is stored as the spec's variable under the
// online conventions:
//
//   - a value or truth payload is the variable itself, starting at
//     cfg.Init;
//   - a process outside cfg.Involved (a conjunction over a subset) is
//     held true throughout, so all(x) over every process is the
//     conjunction over the involved ones, whose initial states are
//     false;
//   - a delta payload is stored as each process's running total, so
//     the channel occupancy at a cut is the variable's sum there and
//     the spec becomes sum(inflight) rel k.
func rebuild(s pred.Spec, cfg Config, events []Event) (*computation.Computation, pred.Spec, error) {
	e, ok := registry[s.Family]
	if !ok || !e.Caps.Incremental {
		return nil, pred.Spec{}, fmt.Errorf("detect: %v has no incremental detector; no stream to rebuild", s.Family)
	}
	if e.Caps.Payload == PayloadDelta {
		s = pred.Spec{Family: pred.Sum, Var: InFlightVar, Rel: s.Rel, K: s.K}
	}
	held := make([]bool, cfg.Procs)
	if len(cfg.Involved) > 0 {
		for p := range held {
			held[p] = !slices.Contains(cfg.Involved, p)
		}
	}
	n := make([]int, cfg.Procs)
	for _, ev := range events {
		n[ev.Proc] = max(n[ev.Proc], int(ev.VC[ev.Proc]))
	}
	c := computation.New()
	val := make([]int64, cfg.Procs) // the variable after the latest event, per process
	for p := range n {
		c.AddProcess() // creates the initial event at index 0
		for range n[p] {
			c.AddInternal(computation.ProcID(p))
		}
		switch {
		case held[p]:
			val[p] = 1
		case p < len(cfg.Init):
			val[p] = cfg.Init[p]
		}
		c.SetVar(s.Var, c.Initial(computation.ProcID(p)).ID, val[p])
	}
	for _, ev := range events {
		p := ev.Proc
		to := c.EventAt(computation.ProcID(p), int(ev.VC[p])).ID
		for q, v := range ev.VC {
			if q != p && v >= 1 {
				if err := c.AddEdge(c.EventAt(computation.ProcID(q), int(v)).ID, to); err != nil {
					return nil, pred.Spec{}, fmt.Errorf("detect: rebuild edge: %w", err)
				}
			}
		}
		switch {
		case held[p]:
		case e.Caps.Payload == PayloadTruth:
			val[p] = 0
			if ev.Truth {
				val[p] = 1
			}
		case e.Caps.Payload == PayloadDelta:
			val[p] += ev.Val
		default:
			val[p] = ev.Val
		}
		c.SetVar(s.Var, to, val[p])
	}
	if err := c.Seal(); err != nil {
		return nil, pred.Spec{}, fmt.Errorf("detect: rebuild: %w", err)
	}
	return c, s, nil
}
