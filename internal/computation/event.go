package computation

import (
	"fmt"
	"strconv"
)

// ProcID identifies a process. Processes are numbered from 0 in the order
// they are added to a Computation.
type ProcID int

// EventID identifies an event globally within a Computation. Events are
// numbered from 0 in the order they are added; initial events are created
// implicitly when a process is added.
type EventID int

// NoEvent is returned by navigation helpers when the requested event does
// not exist (for example, the successor of a final event).
const NoEvent EventID = -1

// Kind classifies an event. An event may be simultaneously a send and a
// receive event (KindSendReceive); the paper's results hold for both the
// permissive and the restrictive model.
type Kind int

const (
	// KindInternal is an event with no attached messages.
	KindInternal Kind = iota + 1
	// KindSend is an event that sends one or more messages.
	KindSend
	// KindReceive is an event that receives one or more messages.
	KindReceive
	// KindSendReceive both sends and receives messages.
	KindSendReceive
	// KindInitial is the fictitious event that initializes a process.
	// It precedes every other event of the computation.
	KindInitial
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInternal:
		return "internal"
	case KindSend:
		return "send"
	case KindReceive:
		return "receive"
	case KindSendReceive:
		return "send+receive"
	case KindInitial:
		return "initial"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// IsReceive reports whether the kind includes a receive.
func (k Kind) IsReceive() bool { return k == KindReceive || k == KindSendReceive }

// Event is one step of one process. The zero value is not a valid event;
// events are created through Computation.AddProcess and Computation.AddEvent.
type Event struct {
	// ID is the global identifier of the event.
	ID EventID
	// Proc is the process the event occurs on.
	Proc ProcID
	// Index is the position of the event on its process; the initial
	// event has index 0.
	Index int
	// Kind classifies the event.
	Kind Kind
	// Label is an optional application-supplied annotation. It plays no
	// role in any algorithm; it is preserved by serialization.
	Label string
}

// IsInitial reports whether e is the fictitious initial event of its process.
func (e Event) IsInitial() bool { return e.Index == 0 }

// String renders the event as "p2[5]" optionally followed by its label.
func (e Event) String() string {
	s := fmt.Sprintf("p%d[%d]", e.Proc, e.Index)
	if e.Label != "" {
		s += ":" + e.Label
	}
	return s
}

// Message is a send/receive pair. The send event happened-before the
// receive event. Channels are reliable but not necessarily FIFO.
type Message struct {
	Send    EventID
	Receive EventID
}

// Edge is an extra order edge from one event to another, used by extended
// causality models (for example the strong-causality model of Tarafdar &
// Garg) where the partial order is not induced by messages alone.
type Edge struct {
	From EventID
	To   EventID
}
