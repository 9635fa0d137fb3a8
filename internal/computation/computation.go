package computation

import (
	"errors"
	"fmt"
)

// Common construction and validation errors.
var (
	// ErrCyclic indicates the declared edges induce a cycle, so the
	// structure is not a partial order.
	ErrCyclic = errors.New("computation: order relation is cyclic")
	// ErrSameProcess indicates a message between two events of one
	// process that is not consistent with the local order.
	ErrBackwardLocal = errors.New("computation: edge contradicts local order")
	// ErrUnknownEvent indicates an event id that does not exist.
	ErrUnknownEvent = errors.New("computation: unknown event")
	// ErrInitialEvent indicates an operation that is illegal on the
	// fictitious initial event of a process (for example receiving a
	// message at it).
	ErrInitialEvent = errors.New("computation: operation not allowed on initial event")
)

// Computation is a finite distributed computation: a set of processes, each
// with a totally ordered local event sequence beginning with an implicit
// initial event, plus messages and optional extra order edges.
//
// A Computation is built incrementally with AddProcess, AddEvent, AddMessage
// and AddEdge, and then sealed with Seal, which validates acyclicity and
// precomputes vector clocks. Query methods that depend on the order relation
// (Precedes, Consistent, ...) require the computation to be sealed; mutating
// it afterwards automatically unseals it.
type Computation struct {
	events []Event
	procs  [][]EventID // procs[p] lists the events of p in local order
	msgs   []Message
	edges  []Edge

	// succs/preds are the direct (non-transitive) neighbors induced by
	// local order, messages and extra edges. Built lazily by Seal.
	succs [][]EventID
	preds [][]EventID

	// clock[e][p] is the number of events of process p that precede or
	// equal event e; equivalently, the Fidge/Mattern vector timestamp
	// with components counted from 1 at the initial event.
	clock [][]int32

	topo   []EventID // a topological order of all events
	sealed bool

	vars map[string][]int64 // named per-event variable valuations
}

// New returns an empty computation.
func New() *Computation {
	return &Computation{vars: make(map[string][]int64)}
}

// Clone returns a deep copy of the computation's structure (processes,
// events, messages, edges, labels and variables). The copy is unsealed.
func (c *Computation) Clone() *Computation {
	out := New()
	out.events = make([]Event, len(c.events))
	copy(out.events, c.events)
	out.procs = make([][]EventID, len(c.procs))
	for p := range c.procs {
		out.procs[p] = append([]EventID(nil), c.procs[p]...)
	}
	out.msgs = append([]Message(nil), c.msgs...)
	out.edges = append([]Edge(nil), c.edges...)
	for name, tab := range c.vars {
		out.vars[name] = append([]int64(nil), tab...)
	}
	return out
}

// NumProcs returns the number of processes.
func (c *Computation) NumProcs() int { return len(c.procs) }

// NumEvents returns the total number of events, including initial events.
func (c *Computation) NumEvents() int { return len(c.events) }

// Len returns the number of events on process p, including its initial
// event.
func (c *Computation) Len(p ProcID) int { return len(c.procs[int(p)]) }

// Messages returns a copy of the message list.
func (c *Computation) Messages() []Message {
	out := make([]Message, len(c.msgs))
	copy(out, c.msgs)
	return out
}

// Edges returns a copy of the extra (non-message) order edges.
func (c *Computation) Edges() []Edge {
	out := make([]Edge, len(c.edges))
	copy(out, c.edges)
	return out
}

// AddProcess adds a new process and returns its id. The process starts with
// its fictitious initial event.
func (c *Computation) AddProcess() ProcID {
	p := ProcID(len(c.procs))
	id := EventID(len(c.events))
	c.events = append(c.events, Event{ID: id, Proc: p, Index: 0, Kind: KindInitial})
	c.procs = append(c.procs, []EventID{id})
	c.unseal()
	return p
}

// AddEvent appends a new event of the given kind to process p and returns
// its id.
func (c *Computation) AddEvent(p ProcID, kind Kind) EventID {
	id := EventID(len(c.events))
	idx := len(c.procs[int(p)])
	c.events = append(c.events, Event{ID: id, Proc: p, Index: idx, Kind: kind})
	c.procs[int(p)] = append(c.procs[int(p)], id)
	c.unseal()
	return id
}

// AddInternal appends an internal event to process p.
func (c *Computation) AddInternal(p ProcID) EventID { return c.AddEvent(p, KindInternal) }

// AddMessage records a message from the send event to the receive event and
// upgrades the kinds of the two events accordingly. Neither endpoint may be
// an initial event. A message between two events of the same process must
// agree with the local order.
func (c *Computation) AddMessage(send, recv EventID) error {
	if err := c.checkEdge(send, recv); err != nil {
		return err
	}
	c.msgs = append(c.msgs, Message{Send: send, Receive: recv})
	c.markSend(send)
	c.markReceive(recv)
	c.unseal()
	return nil
}

// AddEdge records an extra order edge from one event to another without
// attaching message semantics; both endpoints keep their kinds. Use this for
// extended causality models.
func (c *Computation) AddEdge(from, to EventID) error {
	if err := c.checkEdge(from, to); err != nil {
		return err
	}
	c.edges = append(c.edges, Edge{From: from, To: to})
	c.unseal()
	return nil
}

func (c *Computation) checkEdge(from, to EventID) error {
	if !c.valid(from) || !c.valid(to) {
		return fmt.Errorf("%w: edge %d -> %d", ErrUnknownEvent, from, to)
	}
	if c.events[to].IsInitial() {
		return fmt.Errorf("%w: edge into initial event %v", ErrInitialEvent, c.events[to])
	}
	if c.events[from].IsInitial() {
		return fmt.Errorf("%w: explicit edge out of initial event %v", ErrInitialEvent, c.events[from])
	}
	ef, et := c.events[from], c.events[to]
	if ef.Proc == et.Proc && ef.Index >= et.Index {
		return fmt.Errorf("%w: %v -> %v", ErrBackwardLocal, ef, et)
	}
	return nil
}

func (c *Computation) markSend(id EventID) {
	switch c.events[id].Kind {
	case KindInternal:
		c.events[id].Kind = KindSend
	case KindReceive:
		c.events[id].Kind = KindSendReceive
	}
}

func (c *Computation) markReceive(id EventID) {
	switch c.events[id].Kind {
	case KindInternal:
		c.events[id].Kind = KindReceive
	case KindSend:
		c.events[id].Kind = KindSendReceive
	}
}

func (c *Computation) valid(id EventID) bool {
	return id >= 0 && int(id) < len(c.events)
}

// Event returns the event with the given id. It panics on an unknown id;
// ids obtained from this computation are always valid.
func (c *Computation) Event(id EventID) Event {
	if !c.valid(id) {
		panic(fmt.Sprintf("computation: event id %d out of range [0,%d)", id, len(c.events)))
	}
	return c.events[id]
}

// EventAt returns the event at the given local index of process p.
func (c *Computation) EventAt(p ProcID, index int) Event {
	return c.events[c.procs[int(p)][index]]
}

// Initial returns the initial event of process p.
func (c *Computation) Initial(p ProcID) Event { return c.EventAt(p, 0) }

// Prev returns the id of the predecessor of the event on its process, or
// NoEvent if it is the initial event.
func (c *Computation) Prev(id EventID) EventID {
	e := c.Event(id)
	if e.Index == 0 {
		return NoEvent
	}
	return c.procs[int(e.Proc)][e.Index-1]
}

// Next returns the id of the successor of the event on its process, or
// NoEvent if it is the final event.
func (c *Computation) Next(id EventID) EventID {
	e := c.Event(id)
	row := c.procs[int(e.Proc)]
	if e.Index+1 >= len(row) {
		return NoEvent
	}
	return row[e.Index+1]
}

// SetLabel attaches an application label to an event.
func (c *Computation) SetLabel(id EventID, label string) {
	if c.valid(id) {
		c.events[id].Label = label
	}
}

// Events calls fn for every event in (process, index) order. It stops early
// if fn returns false.
func (c *Computation) Events(fn func(Event) bool) {
	for p := range c.procs {
		for _, id := range c.procs[p] {
			if !fn(c.events[id]) {
				return
			}
		}
	}
}

// ProcEvents returns the event ids of process p in local order. The returned
// slice is a copy.
func (c *Computation) ProcEvents(p ProcID) []EventID {
	row := c.procs[int(p)]
	out := make([]EventID, len(row))
	copy(out, row)
	return out
}

// SetVar sets the value of the named per-event variable at event id.
// Variables default to 0 at every event where they are not set. Variable
// tables are preserved by serialization and are the usual way traces carry
// the local integer variables that relational predicates range over.
func (c *Computation) SetVar(name string, id EventID, v int64) {
	tab := c.vars[name]
	for len(tab) <= int(id) {
		tab = append(tab, 0)
	}
	tab[int(id)] = v
	c.vars[name] = tab
}

// Var returns the value of the named variable at event id (0 when unset).
func (c *Computation) Var(name string, id EventID) int64 {
	tab := c.vars[name]
	if int(id) >= len(tab) {
		return 0
	}
	return tab[int(id)]
}

// VarNames returns the names of all variable tables, in no particular order.
func (c *Computation) VarNames() []string {
	out := make([]string, 0, len(c.vars))
	for k := range c.vars {
		out = append(out, k)
	}
	return out
}

func (c *Computation) unseal() {
	c.sealed = false
	c.succs, c.preds, c.clock, c.topo = nil, nil, nil, nil
}
