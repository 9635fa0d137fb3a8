package gpd

import (
	"io"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

// Core model types, re-exported from the computation engine.
type (
	// Computation is a distributed computation: processes, events and
	// an irreflexive partial order extending the per-process orders.
	Computation = computation.Computation
	// Cut is a global state, represented by its per-process frontier.
	Cut = computation.Cut
	// Event is one step of one process.
	Event = computation.Event
	// EventID identifies an event within a computation.
	EventID = computation.EventID
	// ProcID identifies a process.
	ProcID = computation.ProcID
	// Kind classifies an event (internal, send, receive, ...).
	Kind = computation.Kind
	// Message is a send/receive event pair.
	Message = computation.Message
)

// Event kinds.
const (
	KindInternal    = computation.KindInternal
	KindSend        = computation.KindSend
	KindReceive     = computation.KindReceive
	KindSendReceive = computation.KindSendReceive
	KindInitial     = computation.KindInitial
)

// NoEvent is returned by navigation helpers when no event exists.
const NoEvent = computation.NoEvent

// New returns an empty computation. Add processes and events, then call
// Seal before running any detector.
func New() *Computation { return computation.New() }

// ReadTrace reads a JSON trace and seals it.
func ReadTrace(r io.Reader) (*Computation, error) { return computation.ReadTrace(r) }

// WriteTrace writes the computation to w as JSON.
func WriteTrace(w io.Writer, c *Computation) error { return computation.WriteTrace(w, c) }

// GlobalPredicate is an arbitrary predicate on consistent cuts, used by
// the exhaustive detectors.
type GlobalPredicate = lattice.Predicate

// PossiblyGeneric reports whether some consistent cut satisfies the
// predicate, by exhaustive breadth-first exploration of the global-state
// lattice (Cooper–Marzullo). Exponential in the number of processes; use
// the specialized detectors whenever the predicate fits one of the
// tractable classes.
func PossiblyGeneric(c *Computation, pred GlobalPredicate) (bool, Cut) {
	return lattice.Possibly(c, pred)
}

// DefinitelyGeneric reports whether every run of the computation passes
// through a cut satisfying the predicate: no path of the global-state
// lattice from the initial to the final cut avoids it. The lattice is
// swept level by level on one worker, by the same search the region
// queries of the relational and symmetric Definitely kernels use.
// Exponential in the number of processes.
func DefinitelyGeneric(c *Computation, pred GlobalPredicate) bool {
	return lattice.Definitely(c, pred)
}

// CountCuts returns the number of consistent cuts of the computation —
// the size of the search space the specialized detectors avoid.
func CountCuts(c *Computation) int64 { return lattice.Count(c) }
