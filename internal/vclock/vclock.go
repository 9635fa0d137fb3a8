// Package vclock implements Fidge/Mattern vector clocks for online use:
// each process keeps a clock, ticks it on every event, attaches it to
// outgoing messages and merges incoming timestamps. Comparing two timestamps
// decides happened-before, equality or concurrency without any global
// coordination, which is what makes passive online predicate detection
// possible.
package vclock

import (
	"fmt"
	"strings"
)

// VC is a vector timestamp over a fixed number of processes. Component p
// counts the events of process p known to have causally preceded (or be)
// the stamped event.
type VC []int64

// New returns a zero clock for n processes.
func New(n int) VC { return make(VC, n) }

// Clone returns a copy of the clock.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Tick increments component p in place and returns v for chaining.
func (v VC) Tick(p int) VC {
	v[p]++
	return v
}

// Merge sets v to the component-wise maximum of v and other, in place.
func (v VC) Merge(other VC) VC {
	for i := range v {
		if i < len(other) && other[i] > v[i] {
			v[i] = other[i]
		}
	}
	return v
}

// Ordering is the result of comparing two vector timestamps.
type Ordering int

const (
	// Equal: identical timestamps.
	Equal Ordering = iota + 1
	// Before: the receiver happened-before the argument.
	Before
	// After: the argument happened-before the receiver.
	After
	// Concurrent: the timestamps are incomparable.
	Concurrent
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Compare determines the causal relation between v and other. Timestamps of
// different lengths are compared over the shorter prefix with missing
// components treated as zero.
//
//lint:ignore testonly reads stamps as happened-before for TestClockSimulationMatchesTruth (against ground-truth reachability) and the witness checks of TestObserveBatchMatchesObserve
func (v VC) Compare(other VC) Ordering {
	le, ge := true, true
	n := len(v)
	if len(other) > n {
		n = len(other)
	}
	at := func(x VC, i int) int64 {
		if i < len(x) {
			return x[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		a, b := at(v, i), at(other, i)
		if a < b {
			ge = false
		}
		if a > b {
			le = false
		}
	}
	switch {
	case le && ge:
		return Equal
	case le:
		return Before
	case ge:
		return After
	default:
		return Concurrent
	}
}

// String renders the clock, e.g. "[1 0 3]".
func (v VC) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Clock is the per-process clock object used by instrumented processes.
type Clock struct {
	self int
	vc   VC
}

// NewClock returns the clock of process self among n processes.
func NewClock(self, n int) *Clock {
	return &Clock{self: self, vc: New(n)}
}

// Self returns the owning process index.
func (c *Clock) Self() int { return c.self }

// Event advances the clock for a local event and returns the timestamp of
// that event.
func (c *Clock) Event() VC {
	c.vc.Tick(c.self)
	return c.vc.Clone()
}

// Send advances the clock for a send event and returns the timestamp to
// attach to the message.
func (c *Clock) Send() VC { return c.Event() }

// Receive merges the timestamp carried by an incoming message, advances the
// clock for the receive event, and returns the timestamp of that event.
func (c *Clock) Receive(msg VC) VC {
	c.vc.Merge(msg)
	c.vc.Tick(c.self)
	return c.vc.Clone()
}
