package detect

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Entry binds one (family, modality) pair to its detectors.
type Entry struct {
	// Family and Modality key the entry.
	Family   pred.Family
	Modality Modality
	// Caps are the entry's capability flags.
	Caps Caps
	// Batch decides the predicate offline with the family's batch
	// algorithm on a sealed computation.
	Batch func(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error)
	// New builds the incremental detector (nil unless Caps.Incremental).
	// The same constructor backs both modalities of a family: Possibly
	// is latched online, Definitely via the detector's Finalizer.
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
	// Slice decides the predicate through its computation slice (nil
	// unless Caps.Sliceable). The route may still reject individual
	// specs that fall outside the family's regular fragment, with an
	// error wrapping slicing.ErrNotRegular.
	Slice func(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error)
}

type regKey struct {
	family   pred.Family
	modality Modality
}

var registry = make(map[regKey]Entry)

// Register adds an entry to the registry. It panics on a duplicate
// (family, modality) key or a structurally incomplete entry; families
// register from init functions, so a bad registration fails fast at
// program start.
func Register(e Entry) {
	key := regKey{e.Family, e.Modality}
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("detect: duplicate registration for %v/%v", e.Family, e.Modality))
	}
	if e.Batch == nil {
		panic(fmt.Sprintf("detect: registration for %v/%v has no batch detector", e.Family, e.Modality))
	}
	if e.Caps.Incremental && (e.New == nil || e.Linearize == nil) {
		panic(fmt.Sprintf("detect: incremental registration for %v/%v needs New and Linearize", e.Family, e.Modality))
	}
	if e.Caps.Sliceable != (e.Slice != nil) {
		panic(fmt.Sprintf("detect: registration for %v/%v must set Slice iff Caps.Sliceable", e.Family, e.Modality))
	}
	registry[key] = e
}

// Lookup resolves the entry for a family and modality.
func Lookup(f pred.Family, m Modality) (Entry, bool) {
	e, ok := registry[regKey{f, m}]
	return e, ok
}

// Batch resolves the registry entry for the spec's family under the
// modality and runs its offline algorithm. The zero Parallelism option
// resolves to GOMAXPROCS here — once, for every family — so Batch
// functions and the kernels below them always receive a concrete worker
// count.
func Batch(c *computation.Computation, s pred.Spec, m Modality, opt Options, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	opt.Parallelism = par.Limit(opt.Parallelism)
	return e.Batch(c, s, opt, tr)
}

// Replay decides the predicate by driving the family's incremental
// detector over a causal linearization of the sealed computation — the
// same state machine a streaming session runs, end to end: linearize,
// step, flush, and (under ModalityDefinitely) the close-time finalizer.
// It errors for families without an incremental detector.
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
	cfg.Retain = m == ModalityDefinitely
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
		holds, err := fin.FinalizeDefinitely(c, tr)
		if err != nil {
			return Result{}, err
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

// truthFn derives a per-event truth function from the named 0/1
// variable of a computation. Initial states count as false: the online
// detectors have no initial events, and transports rebuild retained
// traces under the same convention.
func truthFn(c *computation.Computation, name string) func(computation.Event) bool {
	return func(e computation.Event) bool {
		return !e.IsInitial() && c.Var(name, e.ID) != 0
	}
}
