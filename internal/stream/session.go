package stream

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// sessionPred is the reserved registration id of a single-predicate
// session's detector inside its multiplexer group.
const sessionPred = "_session"

// Session is one monitored application instance: it ingests that
// application's timestamped events, re-establishes causal order, and
// runs incremental detectors resolved from the detector registry. Every
// session is backed by a mux.Group — causal delivery happens once, and
// detectors attach to it:
//
//   - A single-predicate session (Spec.Pred) carries one
//     all-events registration with exactly the pre-multiplexer
//     semantics: the detector sees every event under raw timestamps, a
//     detector error kills the session, and Close decides Definitely
//     from the endpoints every run shares when they suffice, and
//     otherwise from the retained trace when the session keeps one.
//   - A multiplexed session (Spec.Mux) starts empty; predicates are
//     registered and unregistered mid-stream, each stepped only on the
//     events its relevance set touches, under projected timestamps.
//     Events must tag the variable they update (Event.Var). Possibly
//     reports whether ANY registered predicate has latched; per-
//     predicate verdicts fan out as sequence-numbered updates.
//
// A Session is confined to one goroutine (the engine gives each session
// to exactly one shard worker); it is not safe for concurrent use.
type Session struct {
	spec  Spec
	mux   bool       // multiplexed session (Spec.Mux)
	ps    pred.Spec  // canonical predicate (single-predicate sessions)
	group *mux.Group // causal delivery + routing, owns the detectors
	err   error      // sticky failure; the session is dead once set

	retained []Event // full delivered trace when spec.Retain
	possibly bool    // latched verdict as of the last Flush
	flushes  int
}

// NewSession validates the spec and builds the session. For
// single-predicate specs the family's incremental detector is resolved
// from the registry; families without one (cnf) are rejected — they
// need the sealed computation and cannot stream.
func NewSession(spec Spec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		spec:  spec,
		group: mux.NewGroup(spec.Procs),
	}
	if spec.Mux {
		s.mux = true
		return s, nil
	}
	ps, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	entry, ok := detect.Lookup(ps.Family, detect.ModalityPossibly)
	if !ok || !entry.Caps.Incremental {
		return nil, fmt.Errorf("stream: predicate family %v has no incremental detector", ps.Family)
	}
	s.ps = ps
	if err := s.group.Register(mux.Registration{
		ID:        sessionPred,
		Tenant:    spec.Tenant,
		Spec:      ps,
		Involved:  spec.Involved,
		Init:      spec.Init,
		AllEvents: true,
	}); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if spec.Retain {
		s.group.OnDeliver(func(ev Event) { s.retained = append(s.retained, ev) })
	}
	s.possibly = s.group.Possibly(sessionPred) // a satisfied initial cut latches immediately
	return s, nil
}

// KindLabel names the session for stats surfaces: the predicate family
// of a single-predicate session, "mux" for a multiplexed one.
func (s *Session) KindLabel() string {
	if s.mux {
		return "mux"
	}
	return s.ps.Family.String()
}

// Mux reports whether the session is multiplexed.
func (s *Session) Mux() bool { return s.mux }

// Register attaches a predicate to a multiplexed session. The predicate
// observes the stream from the registration cut onward; its variable is
// seeded with the last delivered values unless Init is given.
func (s *Session) Register(r mux.Registration) error {
	if !s.mux {
		return fmt.Errorf("stream: session is not multiplexed; open it with mux")
	}
	if s.err != nil {
		return s.err
	}
	r.AllEvents = false
	return s.group.Register(r)
}

// Unregister detaches a predicate from a multiplexed session and
// returns the tenant that held it.
func (s *Session) Unregister(id string) (string, error) {
	if !s.mux {
		return "", fmt.Errorf("stream: session is not multiplexed; open it with mux")
	}
	tenant := s.group.Tenant(id)
	return tenant, s.group.Unregister(id)
}

// Updates drains the verdict updates queued since the last call:
// sequence-numbered per predicate, one entry per latch or per-predicate
// failure.
func (s *Session) Updates() []mux.Update { return s.group.Drain() }

// PredicateStates reports the current state of every registered
// predicate (the close-time fan-out).
func (s *Session) PredicateStates() []mux.Update { return s.group.States() }

// MuxStats returns the group's multiplexing counters.
func (s *Session) MuxStats() mux.Stats { return s.group.Stats() }

// OnCost installs the cost resolver on the underlying group (see
// mux.Group.OnCost). The engine feeds the cost ledger through it.
func (s *Session) OnCost(resolve func(tenant, family, id string) func(steps int64)) {
	s.group.OnCost(resolve)
}

// Step ingests one event. Events of one process must arrive in local
// order; arbitrary interleaving (even causal reordering) across processes
// is handled by the holdback buffer. Returns the session's sticky error,
// if any. In a multiplexed session a single detector's failure is NOT a
// session error — it surfaces in that predicate's update stream.
//
//lint:hotpath
func (s *Session) Step(ev Event) error {
	if s.err != nil {
		return s.err
	}
	if err := s.group.Step(ev); err != nil {
		return s.fail(err)
	}
	if !s.mux {
		if perr := s.group.PredicateErr(sessionPred); perr != nil {
			return s.fail(fmt.Errorf("stream: %w", perr))
		}
	}
	if s.spec.MaxWindow > 0 {
		if hb := s.group.Holdback(); hb > s.spec.MaxWindow {
			return s.fail(fmt.Errorf("stream: holdback exceeds max window %d (gap in the stream?)", s.spec.MaxWindow))
		}
		if w := s.Window(); w > s.spec.MaxWindow {
			return s.fail(fmt.Errorf("stream: detector window %d exceeds max window %d (a process is silent?)", w, s.spec.MaxWindow))
		}
	}
	return s.err
}

// fail latches the session error.
func (s *Session) fail(err error) error {
	s.err = err
	return err
}

// Flush advances every detector stepped since the last flush (one
// elimination sweep or closure recomputation per detector, however many
// events arrived), prunes detector windows and projections below the
// delivered frontier, and returns the latched Possibly verdict — for a
// multiplexed session, whether ANY registered predicate has latched.
func (s *Session) Flush() bool {
	if s.err != nil {
		return s.possibly
	}
	s.flushes++
	if s.group.Flush() {
		s.possibly = true
	}
	return s.possibly
}

// Possibly returns the latched verdict as of the last Flush.
func (s *Session) Possibly() bool { return s.possibly }

// Err returns the session's sticky error, if any.
func (s *Session) Err() error { return s.err }

// Delivered returns the total number of causally delivered events.
func (s *Session) Delivered() int64 { return s.group.Delivered() }

// Holdback returns the number of buffered undeliverable events.
func (s *Session) Holdback() int { return s.group.Holdback() }

// Window returns the retained detector state size: the live detector
// window of a single-predicate session, the summed windows (as of the
// last flush) of a multiplexed one.
func (s *Session) Window() int {
	if s.mux {
		return s.group.Window()
	}
	if det := s.group.Detector(sessionPred); det != nil {
		return det.Window()
	}
	return 0
}

// Flushes returns the number of detector flushes performed.
func (s *Session) Flushes() int { return s.flushes }

// RetainedEvents reports the session's held history: the full
// delivered trace of a retaining session. Every other session, mux
// sessions included, holds none. The engine's retained-events
// SLO watches this.
func (s *Session) RetainedEvents() int { return len(s.retained) }

// Finalize seals the stream: it flushes the detectors, verifies the
// stream was gapless, and — for a single-predicate session — decides
// Definitely from the endpoints every run shares, or, when they leave
// it open and the session retained the trace, with the family's batch
// kernel on the computation rebuilt from it (detect.Residue). The
// Possibly verdict in the returned Verdict is exact for the complete
// computation.
func (s *Session) Finalize() (Verdict, error) {
	return s.FinalizeTraced(nil)
}

// FinalizeTraced is Finalize with the close-time rebuild accounted into
// the trace, for the closes the endpoints leave open: the rebuild size
// and the work counters of the Definitely batch kernel (region cuts
// explored, interval eliminations, ...).
func (s *Session) FinalizeTraced(tr *obs.Trace) (Verdict, error) {
	s.Flush()
	v := Verdict{Possibly: s.possibly}
	if s.err != nil {
		return v, s.err
	}
	if hb := s.group.Holdback(); hb > 0 {
		return v, s.fail(fmt.Errorf("stream: %d events undeliverable at close (gaps in the stream)", hb))
	}
	if s.mux { // mux sessions decide Possibly only
		return v, nil
	}
	fin, ok := s.group.Detector(sessionPred).(detect.Finalizer)
	if !ok {
		return v, nil // the detector cannot decide Definitely; Possibly stands
	}
	if def, known := fin.EndpointDefinitely(); known || !s.spec.Retain {
		v.Definitely, v.DefinitelyKnown = def, known
		return v, nil
	}
	cfg := detect.Config{Procs: s.spec.Procs, Involved: s.spec.Involved, Init: s.spec.Init}
	def, rebuilt, err := detect.Residue(s.ps, cfg, s.retained, tr)
	if err != nil {
		return v, s.fail(fmt.Errorf("stream: %w", err))
	}
	tr.Add("stream.rebuilt_events", int64(rebuilt))
	v.Definitely, v.DefinitelyKnown = def, true
	return v, nil
}
