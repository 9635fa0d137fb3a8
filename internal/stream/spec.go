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
	Init []int64 `json:"init,omitempty"`
	// Retain keeps the full delivered trace so Close can also decide the
	// Definitely modality offline. Costs O(events) memory.
	Retain bool `json:"retain,omitempty"`
	// Slice swaps unbounded per-session history for the predicate's
	// incremental slice: the session maintains the join-irreducibles of
	// the satisfying sublattice online and retains only the compacting
	// frontier — O(slice) memory however long the stream runs. Regular
	// truth-payload predicate families only (all(var)); mutually
	// exclusive with Retain. At close the slice also decides Definitely
	// when it can: an empty slice is Definitely false, a slice topping
	// at the final cut is Definitely true.
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
	// (Involved, Init, Retain, Slice).
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
// in the canonical spec and are validated separately by Validate.
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

// Validate checks the spec for structural errors. Predicate-shape rules
// (e.g. a non-empty symmetric level set) are enforced by converting to the
// canonical pred.Spec and validating that, so the wire protocol and the
// offline surfaces cannot drift apart; only stream-transport fields are
// checked here.
func (sp Spec) Validate() error {
	if sp.Procs < 1 {
		return fmt.Errorf("stream: spec needs procs >= 1, got %d", sp.Procs)
	}
	if sp.MaxWindow < 0 {
		return fmt.Errorf("stream: negative max window %d", sp.MaxWindow)
	}
	if sp.Mux {
		if sp.Pred != "" {
			return fmt.Errorf("stream: mux sessions carry no fixed predicate; register predicates instead")
		}
		if len(sp.Involved) > 0 || len(sp.Init) > 0 || sp.Retain || sp.Slice {
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
	if len(sp.Involved) > 0 && ps.Family != pred.Conjunctive {
		return fmt.Errorf("stream: involved processes apply only to conjunctive sessions, not %v", ps.Family)
	}
	if ps.Family == pred.InFlight && len(sp.Init) > 0 {
		return fmt.Errorf("stream: inflight sessions take no initial values (occupancy starts at 0)")
	}
	if sp.Slice {
		if sp.Retain {
			return fmt.Errorf("stream: slice and retain are mutually exclusive; the slice frontier replaces retained history")
		}
		entry, ok := detect.Lookup(ps.Family, detect.ModalityPossibly)
		if !ok || !entry.Caps.Sliceable || entry.Caps.Payload != detect.PayloadTruth {
			return fmt.Errorf("stream: slice sessions need a regular truth-payload predicate family; %v is not (use all(var))", ps.Family)
		}
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
	// DefinitelyKnown is set when the session retained the trace and
	// could run the offline Definitely detector at Close — or when a
	// sliced session's sealed slice decided it (an empty slice is
	// Definitely false; a slice topping at the final cut is Definitely
	// true).
	DefinitelyKnown bool `json:"definitely_known,omitempty"`
	// SliceRetained is the slice frontier size at close (sliced
	// sessions only): the ceiling of what the session ever had to keep.
	SliceRetained int `json:"slice_retained,omitempty"`
	// SliceCompacted is the total events freed by slice compaction over
	// the session's lifetime — the history a retaining session would
	// have held.
	SliceCompacted int64 `json:"slice_compacted,omitempty"`
}
