// Package detect is the detector kernel: one registry of predicate
// detectors, keyed by family, that backs every detection surface of the
// repository — the offline gpd.Detect front door, the streaming serving
// stack (internal/stream sessions), and the replay bridge between them.
//
// Each registry Entry binds a predicate family to
//
//   - one batch kernel per modality running the family's offline
//     algorithm on a sealed computation (CPDHB for conjunctions,
//     max-weight closures for sums and channel occupancy, the sum
//     decomposition for symmetric predicates, the singular algorithms
//     for CNF), and
//   - for incremental-capable families, a constructor for the online
//     Detector plus a Linearize function that replays a sealed
//     computation as the delivered-event stream an instrumented
//     application would have produced.
//
// A Detector consumes causally delivered events one at a time and
// latches a Possibly verdict as soon as some consistent cut of the
// observed prefix satisfies the predicate, in the spirit of Chauhan et
// al., "A Distributed Abstraction Algorithm for Online Predicate
// Detection" (arXiv:1304.4326). Detectors that also implement Finalizer
// decide the Definitely modality from the stream's endpoints once it is
// complete; what the endpoints leave open is decided offline, by the
// family's batch kernel on the trace rebuilt from the stream (Residue).
//
// Adding a family costs one constructor and one registration (see the
// per-family files in this package); transports and the public API
// resolve through the registry and never switch on the family.
package detect

import (
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/obs"
)

// Modality selects between the weak and strong interpretation of a
// predicate over a computation.
type Modality int

const (
	// ModalityPossibly asks whether SOME consistent cut satisfies the
	// predicate.
	ModalityPossibly Modality = iota + 1
	// ModalityDefinitely asks whether EVERY run passes through a
	// satisfying cut.
	ModalityDefinitely
)

// String names the modality.
func (m Modality) String() string {
	switch m {
	case ModalityPossibly:
		return "possibly"
	case ModalityDefinitely:
		return "definitely"
	default:
		return fmt.Sprintf("modality(%d)", int(m))
	}
}

// ParseModality parses "possibly" or "definitely".
func ParseModality(s string) (Modality, error) {
	switch s {
	case "possibly":
		return ModalityPossibly, nil
	case "definitely":
		return ModalityDefinitely, nil
	default:
		return 0, fmt.Errorf("detect: unknown modality %q", s)
	}
}

// Strategy selects how a detection run computes its answer.
type Strategy int

const (
	// StrategyBatch runs the family's offline algorithm on the sealed
	// computation (the default).
	StrategyBatch Strategy = iota + 1
	// StrategyReplay drives the family's incremental detector over a
	// causal linearization of the computation — the same state machine
	// the streaming server runs — and, under ModalityDefinitely, closes
	// the way a retaining session does: the detector's endpoints, then
	// the batch kernel on the rebuilt trace. Available only for
	// incremental-capable families; cross-checkable against
	// StrategyBatch.
	StrategyReplay
	// StrategySlice computes the predicate's slice first — the exact
	// sublattice of satisfying cuts a regular predicate induces (Mittal
	// & Garg, "Computation slicing") — and decides from it, delegating
	// to the family's batch kernel only when the slice alone cannot
	// answer. Available only for sliceable (regular) families;
	// non-regular specs fail with an error wrapping
	// slicing.ErrNotRegular instead of silently degrading.
	StrategySlice
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyBatch:
		return "batch"
	case StrategyReplay:
		return "replay"
	case StrategySlice:
		return "slice"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Event is one causally delivered event of a monitored computation. VC
// is the vector timestamp produced by the process's online clock
// (component q = number of events of process q in the causal past,
// inclusive; initial states are not events). The payload field a
// family's detector consumes is declared by its Caps.Payload.
type Event struct {
	Proc  int     `json:"proc"`
	VC    []int64 `json:"vc"`
	Truth bool    `json:"truth,omitempty"` // PayloadTruth: the 0/1 variable
	Val   int64   `json:"val,omitempty"`   // PayloadValue / PayloadDelta
	// Var names the variable this event updates. Single-predicate
	// transports leave it empty (the session's one variable is implied);
	// multiplexed streams tag every event so the router can step only
	// the detectors whose relevance set contains the variable. Channel
	// occupancy deltas are tagged InFlightVar.
	Var string `json:"var,omitempty"`
}

// InFlightVar is the reserved variable tag of channel-occupancy events
// in multiplexed streams — the same keyword the predicate grammar uses
// for the inflight family.
const InFlightVar = "inflight"

// Payload declares which Event field an incremental detector consumes,
// so transports can fill and rebuild traces without knowing the family.
type Payload int

const (
	// PayloadNone: the family has no incremental detector.
	//lint:ignore testonly the zero value batch-only entries carry, which TestRegistryShape checks against Caps.Incremental
	PayloadNone Payload = iota
	// PayloadTruth: Event.Truth carries the process's 0/1 variable.
	PayloadTruth
	// PayloadValue: Event.Val carries the variable's value after the
	// event.
	PayloadValue
	// PayloadDelta: Event.Val carries the per-event change of the
	// tracked quantity (e.g. sends − receives for channel occupancy).
	PayloadDelta
)

// Detector is one online predicate detector instance. It consumes the
// events of a single computation in any causality-respecting order:
// events of one process in local order, cross-process interleaving
// arbitrary as long as every event arrives after its causal
// predecessors (transports enforce this with holdback buffers).
//
// Step ingests one delivered event; Flush advances the detector over
// everything stepped since the last flush (detectors batch the
// expensive recomputations so a transport can amortise them over a
// whole mailbox drain) and returns the latched Possibly verdict. A
// Detector is confined to one goroutine.
type Detector interface {
	// Step consumes one causally delivered event. A non-nil error is
	// fatal for the stream (e.g. a unit-step violation).
	Step(ev Event) error
	// Flush advances the detector over the events stepped since the
	// last flush and returns the latched Possibly verdict.
	Flush() bool
	// Possibly returns the latched verdict as of the last Flush.
	Possibly() bool
	// Window returns the detector's retained state size in events.
	Window() int
	// Snapshot reports the detector's current view.
	Snapshot() Snapshot
}

// Finalizer is implemented by detectors that can decide the Definitely
// modality once the stream is complete.
//
// EndpointDefinitely decides it without a trace, from the endpoints
// every run shares: each starts at the initial cut and ends at the
// final cut (the cut of everything stepped), and a unit-step quantity
// passes through every value between the two. It is called after the
// last Flush; known is false when the endpoints alone cannot decide,
// and the residue then goes to the batch kernel (Residue).
type Finalizer interface {
	EndpointDefinitely() (holds, known bool)
}

// Traceable is implemented by detectors whose incremental work (closure
// recomputations, augmenting paths) can be accounted into a trace.
type Traceable interface {
	SetTrace(tr *obs.Trace)
}

// Relevance bounds the events that can affect a detector's verdict: a
// multiplexing router only steps the detector for events whose process
// and variable fall inside the sets. A nil Procs or Vars slice means
// "every process" / "every variable" — the sound, conservative answer.
type Relevance struct {
	// Procs lists the processes whose events the detector consumes;
	// nil means all.
	Procs []int
	// Vars lists the variables whose events the detector consumes; nil
	// means all. Channel-occupancy detectors report InFlightVar.
	Vars []string
}

// Toucher is implemented by detectors that can bound their relevance
// set. The hint must be sound: stepping the detector with only the
// events inside the set must latch the same verdict as stepping it with
// every event (routers rely on this to skip the rest).
type Toucher interface {
	Touches() Relevance
}

// TouchesOf returns d's relevance hint, or the conservative
// touches-everything Relevance for detectors that do not implement
// Toucher — such detectors are stepped on every event, which is always
// sound.
func TouchesOf(d Detector) Relevance {
	if t, ok := d.(Toucher); ok {
		return t.Touches()
	}
	return Relevance{}
}

// Snapshot is a detector's current view: the latched verdict, the
// retained window, and — for detectors tracking a quantity — the exact
// range the quantity attains over consistent cuts of the observed
// prefix.
type Snapshot struct {
	Possibly bool
	Window   int
	Min, Max int64
	HasRange bool
}

// Config carries the transport-level parameters of an incremental
// detector: everything about the session that is not part of the
// predicate itself.
type Config struct {
	// Procs is the number of processes in the monitored computation.
	Procs int
	// Involved lists the processes carrying a local predicate
	// (conjunctive only); nil means all.
	Involved []int
	// Init gives the initial per-process variable values (PayloadValue:
	// the variable; PayloadTruth: 0/1). nil means all zero/false.
	// Ignored by families whose initial states are fixed (conjunctive
	// takes them as false, inflight starts at occupancy zero).
	Init []int64
	// Retain is accepted and ignored: no detector keeps per-event state
	// for the close, whose residue is decided on the transport's own
	// trace (Residue). It stays only because bench/ still sets it;
	// ROADMAP's black-box bench/ item deletes it.
	Retain bool
}

// Caps are a registry entry's capability flags.
type Caps struct {
	// Incremental reports whether the family has an online detector
	// (New and Linearize are set) — the precondition for streaming
	// sessions and StrategyReplay.
	Incremental bool
	// Sliceable reports whether the family is regular, so detection can
	// go through the predicate's slice (Entry.SlicePossibly and
	// Entry.SliceDefinitely are set) — the precondition for
	// StrategySlice. Streaming sessions do not consult it: every session
	// reads the two facts a slice gives at close (empty; top at the
	// final cut) from its detector's endpoints (Finalizer).
	Sliceable bool
	// Payload declares the Event field the incremental detector
	// consumes.
	Payload Payload
}

// Options carries per-run options a batch kernel may consume.
type Options struct {
	// Singular selects the singular detection algorithm (CNF under
	// ModalityPossibly only).
	Singular singular.Strategy
	// Parallelism is the worker budget of the batch kernels. Batch
	// resolves the zero value to GOMAXPROCS before dispatching, so batch
	// kernels always see a concrete count; 1 runs the exact sequential
	// algorithms. Every family's parallel route is bit-identical to its
	// sequential one (same verdict, witness and work counters), so this
	// only affects wall-clock time.
	Parallelism int
}

// Result is the outcome of a batch or replay run. Transports copy the
// fields their report surfaces expose.
type Result struct {
	// Holds is the verdict under the entry's modality.
	Holds bool
	// Witness, when non-nil, is a consistent cut satisfying the
	// predicate (batch Possibly runs of the cut-constructing families;
	// replay runs do not construct cuts).
	Witness computation.Cut
	// Strategy and Combinations report the singular algorithm used and
	// the CPDHB sub-runs tried (CNF under ModalityPossibly only).
	Strategy     singular.Strategy
	Combinations int
	// Min and Max bound the tracked quantity over all consistent cuts
	// when HasRange is set.
	Min, Max int64
	HasRange bool
}
