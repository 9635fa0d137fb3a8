// Package stream is the online serving subsystem: multi-tenant streaming
// predicate detection over vector-clock-timestamped event streams.
//
// A monitored application instance opens a Session with a predicate Spec
// and streams its events — every event, not just interesting ones, each
// carrying the vector timestamp produced by an online vclock.Clock.
// Sessions deliver events in causal order (holding back out-of-order
// arrivals) and feed an incremental detector resolved from the detector
// registry (internal/detect) — any incremental-capable family the
// registry knows (conjunctive, sum, count, xor, levels, channel
// occupancy) streams here with no transport changes — latching a
// Possibly verdict the moment some consistent cut of the observed prefix
// satisfies the predicate. Memory stays bounded by pruning everything
// below the vector-clock frontier common to all processes, in the spirit
// of Chauhan et al., "A Distributed Abstraction Algorithm for Online
// Predicate Detection" (arXiv:1304.4326), with incremental maintenance
// following Mittal & Garg's slicing line of work (arXiv:cs/0303010).
//
// Engine shards sessions over a pool of workers with bounded, batched,
// backpressured mailboxes; Server exposes the engine over TCP with
// length-prefixed JSON frames. See the package's e2e tests for the full
// serving path.
package stream

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Spec is the per-session predicate specification.
type Spec struct {
	// Pred is the predicate in the canonical grammar shared with
	// gpd.ParseSpec and gpddetect (e.g. "all(x)", "sum(x) == 5",
	// "inflight == 0"). Any incremental-capable family of the detector
	// registry is accepted; it is the only spelling of a session's
	// predicate.
	Pred string `json:"pred,omitempty"`
	// Procs is the number of processes in the monitored application.
	Procs int `json:"procs"`
	// Involved lists the processes carrying a local predicate
	// (conjunctive only); nil means all.
	Involved []int `json:"involved,omitempty"`
	// Init gives the initial per-process variable values (sum: the
	// variable; boolean families: 0/1 truth). nil means all zero/false.
	// all(var) takes its involved processes as false and refuses a
	// nonzero value for one.
	Init []int64 `json:"init,omitempty"`
	// Retain keeps the full delivered trace so Close can also decide the
	// Definitely modality offline when the endpoints every run shares
	// leave it open. Costs O(events) memory.
	Retain bool `json:"retain,omitempty"`
	// Slice is accepted and ignored: every single-predicate session
	// decides Definitely from its endpoints at close, and none keeps a
	// slice. It stays only because bench/ still sets it; ROADMAP's
	// black-box bench/ item deletes it.
	Slice bool `json:"slice,omitempty"`
	// MaxWindow bounds retained-window and holdback sizes; a session
	// exceeding it fails rather than grow without bound (a silent or
	// partitioned process prevents frontier pruning). 0 means no bound.
	MaxWindow int `json:"max_window,omitempty"`
	// Mux opens a multiplexed session: no fixed predicate — predicates
	// are registered and unregistered mid-stream (wire types "register"
	// and "unregister"), each stepped only on the events its relevance
	// set touches. Events must tag the variable they update (Event.Var).
	// Mutually exclusive with Pred and the per-predicate fields
	// (Involved, Init, Retain). A mux session retains no history; its
	// close decides Definitely per predicate (mux.Group.States).
	Mux bool `json:"mux,omitempty"`
	// Tenant names the session's owning tenant for cost attribution and
	// per-tenant metrics; "" means "default". Predicates registered on a
	// multiplexed session carry their own tenant (RegisterSpec.Tenant) —
	// this field owns the session-level resources: ingest, delivery,
	// close-time finalization, wire bytes.
	Tenant string `json:"tenant,omitempty"`
}

// Canonical parses Pred into the canonical predicate specification
// shared with gpd.Detect and gpddetect (internal/pred). Stream-transport
// fields (Procs, Involved, Init, Retain, MaxWindow) have no counterpart
// in the canonical spec: Validate checks the session-wide ones, and
// Involved and Init are checked where the detector is registered
// (mux.Group.Register), on the same path a mux registration takes.
func (sp Spec) Canonical() (pred.Spec, error) {
	if sp.Pred == "" {
		return pred.Spec{}, fmt.Errorf(`stream: spec names no predicate; set "pred" to a grammar string such as "all(x)" (the numeric "kind" selector is gone)`)
	}
	ps, err := pred.Parse(sp.Pred)
	if err != nil {
		return pred.Spec{}, fmt.Errorf("stream: %w", err)
	}
	return ps, nil
}

// maxProcs is the widest session a frame can feed: a clock of n
// components takes at least 2n+1 bytes ("[0,0,…]"), so no event of a
// wider session fits in MaxFrame.
const maxProcs = MaxFrame / 2

// Validate checks the spec for structural errors. Predicate-shape rules
// (e.g. a non-empty symmetric level set) are enforced by converting to the
// canonical pred.Spec and validating that, so the wire protocol and the
// offline surfaces cannot drift apart; only stream-transport fields are
// checked here.
func (sp Spec) Validate() error {
	if sp.Procs < 1 {
		return fmt.Errorf("stream: spec needs procs >= 1, got %d", sp.Procs)
	}
	if sp.Procs > maxProcs {
		return fmt.Errorf("stream: spec needs procs <= %d, got %d (a wider clock cannot fit in one %d-byte frame)", maxProcs, sp.Procs, MaxFrame)
	}
	if sp.MaxWindow < 0 {
		return fmt.Errorf("stream: negative max window %d", sp.MaxWindow)
	}
	if sp.Mux {
		if sp.Pred != "" {
			return fmt.Errorf("stream: mux sessions carry no fixed predicate; register predicates instead")
		}
		if len(sp.Involved) > 0 || len(sp.Init) > 0 || sp.Retain {
			return fmt.Errorf("stream: mux sessions take per-predicate options at register time, not in the spec")
		}
		return nil
	}
	ps, err := sp.Canonical()
	if err != nil {
		return err
	}
	if err := ps.Validate(sp.Procs); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Event is one timestamped event of the monitored application. VC is the
// vector timestamp produced by the process's online clock (component p =
// number of events of process p in the causal past, inclusive). Events of
// one process must be appended in local order; interleaving across
// processes is arbitrary — sessions re-establish causal order. It is the
// detector kernel's event type, so sessions hand events straight to their
// detector with no conversion.
type Event = detect.Event

// Verdict is a session's detection outcome.
type Verdict struct {
	// Possibly reports whether some consistent cut of the streamed
	// computation satisfies the predicate. Latched: exact at Close, and
	// already-true verdicts mid-stream are final.
	Possibly bool `json:"possibly"`
	// Definitely reports whether every run passes through a satisfying
	// cut; only meaningful when DefinitelyKnown.
	Definitely bool `json:"definitely,omitempty"`
	// DefinitelyKnown is set when the endpoints decided it at Close
	// (Possibly never latched: Definitely false; a value every run passes
	// through satisfies: Definitely true), or when the session retained
	// the trace and ran the offline Definitely detector on the rest. A mux
	// session's per-predicate Definitely is in its close fan-out instead.
	DefinitelyKnown bool `json:"definitely_known,omitempty"`
}
