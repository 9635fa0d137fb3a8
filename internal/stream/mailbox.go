package stream

import (
	"sync"

	"github.com/distributed-predicates/gpd/internal/mux"
)

// OverflowPolicy selects what a full shard mailbox does with new append
// traffic.
type OverflowPolicy int

const (
	// Backpressure blocks the producer until the worker drains room —
	// lossless, and the TCP connection naturally propagates the stall to
	// the monitored application.
	Backpressure OverflowPolicy = iota
	// DropOldest sheds the oldest queued append frame to admit the new
	// one — bounded latency for monitoring traffic that tolerates loss
	// (a session whose stream gaps will fail loudly at Close). Control
	// messages (open/close/query) are never shed and always block.
	DropOldest
)

// String names the policy (also the flag/wire encoding).
func (p OverflowPolicy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "backpressure"
}

// msgKind discriminates shard mailbox messages.
type msgKind int

const (
	msgOpen msgKind = iota + 1
	msgAppend
	msgQuery
	msgClose
	msgRegister
	msgUnregister
)

// shardMsg is one unit of work for a shard worker.
type shardMsg struct {
	kind    msgKind
	session string
	seq     uint64 // flight-recorder frame sequence (append frames only)
	spec    Spec
	events  []Event
	reg     RegisterSpec    // register
	pred    string          // unregister
	reply   chan shardReply // sync ops only; buffered, never blocks the worker
}

// shardReply answers a sync shard message.
type shardReply struct {
	err     error
	verdict Verdict
	stats   SessionStats
	updates []mux.Update // drained verdict updates (query/register on mux sessions)
	preds   []mux.Update // close-time per-predicate fan-out; unregister: the one released
}

// mailbox is a bounded MPSC ring buffer with explicit overflow policy and
// high-water tracking. Producers are server connections; the single
// consumer is the shard worker.
type mailbox struct {
	mu        sync.Mutex
	notEmpty  sync.Cond
	notFull   sync.Cond
	buf       []shardMsg
	head      int // index of the oldest message
	count     int
	closed    bool
	highWater int
}

func newMailbox(capacity int) *mailbox {
	mb := &mailbox{buf: make([]shardMsg, capacity)}
	mb.notEmpty.L = &mb.mu
	mb.notFull.L = &mb.mu
	return mb
}

// put enqueues a message. Control messages always block until there is
// room; append messages follow the policy — under DropOldest, the oldest
// queued append frame is shed and returned so the caller can account for
// it. ok is false when the mailbox is closed.
func (mb *mailbox) put(m shardMsg, policy OverflowPolicy) (dropped []shardMsg, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.closed {
			return dropped, false
		}
		if mb.count < len(mb.buf) {
			break
		}
		if m.kind == msgAppend && policy == DropOldest {
			if d, found := mb.dropOldestAppendLocked(); found {
				//lint:ignore hotalloc sheds happen only when the mailbox is already overflowing — the allocation is confined to the overload path, where dropping beats stalling
				dropped = append(dropped, d)
				continue
			}
		}
		mb.notFull.Wait()
	}
	mb.buf[(mb.head+mb.count)%len(mb.buf)] = m
	mb.count++
	if mb.count > mb.highWater {
		mb.highWater = mb.count
	}
	mb.notEmpty.Signal()
	return dropped, true
}

// dropOldestAppendLocked removes the oldest append message from the ring,
// compacting the remaining messages in order.
func (mb *mailbox) dropOldestAppendLocked() (shardMsg, bool) {
	n := len(mb.buf)
	for i := 0; i < mb.count; i++ {
		idx := (mb.head + i) % n
		if mb.buf[idx].kind != msgAppend {
			continue
		}
		victim := mb.buf[idx]
		for j := i; j+1 < mb.count; j++ {
			mb.buf[(mb.head+j)%n] = mb.buf[(mb.head+j+1)%n]
		}
		mb.buf[(mb.head+mb.count-1)%n] = shardMsg{}
		mb.count--
		return victim, true
	}
	return shardMsg{}, false
}

// drain blocks until at least one message is queued (or the mailbox
// closes), then pops up to max messages into dst. ok is false once the
// mailbox is closed AND empty.
func (mb *mailbox) drain(dst []shardMsg, max int) ([]shardMsg, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.count == 0 {
		if mb.closed {
			return dst, false
		}
		mb.notEmpty.Wait()
	}
	n := mb.count
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, mb.buf[mb.head])
		mb.buf[mb.head] = shardMsg{}
		mb.head = (mb.head + 1) % len(mb.buf)
		mb.count--
	}
	mb.notFull.Broadcast()
	return dst, true
}

// depth returns the current queue depth and its high-water mark.
func (mb *mailbox) depth() (depth, highWater int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.count, mb.highWater
}

// close wakes all waiters; queued messages are still drained.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.notEmpty.Broadcast()
	mb.notFull.Broadcast()
}
