package stream

import (
	"sync"

	"github.com/distributed-predicates/gpd/internal/mux"
)

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

// mailbox is a bounded MPSC ring buffer with backpressure and
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

// put enqueues a message, blocking until there is room: backpressure is
// lossless, and the TCP connection propagates the stall to the
// monitored application. ok is false when the mailbox is closed.
func (mb *mailbox) put(m shardMsg) (ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.count == len(mb.buf) && !mb.closed {
		mb.notFull.Wait()
	}
	if mb.closed {
		return false
	}
	mb.buf[(mb.head+mb.count)%len(mb.buf)] = m
	mb.count++
	if mb.count > mb.highWater {
		mb.highWater = mb.count
	}
	mb.notEmpty.Signal()
	return true
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
