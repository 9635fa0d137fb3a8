package gpd

import (
	"sync"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// VC is a vector timestamp.
type VC = vclock.VC

// Monitor detects a weak conjunctive predicate online, in process, in
// the style of Garg & Waldecker: every application process carries a
// Probe that maintains its vector clock and feeds the timestamps of its
// true events into the registry's conjunctive detector — the same state
// machine a streaming session runs — which announces the first
// consistent global state in which every involved local predicate
// holds. The monitor is transport-agnostic: applications piggyback the
// clocks Probe.Send returns on whatever channel they already use. To
// monitor processes on other machines, open an all(var) session on a
// stream server instead (see examples/onlinemonitor).
//
// A Monitor starts no goroutine; probes report under its mutex.
type Monitor struct {
	n        int
	detected chan struct{}

	mu      sync.Mutex
	det     detect.Detector
	witness func() []VC // the detector's Witness: copies, nil until found
	closed  bool
}

// NewMonitor returns an online monitor over n processes for the
// conjunction of the involved processes' local predicates (nil: all
// n). It panics if involved names a process outside [0, n) or lists
// one twice — such a conjunction could never be detected.
func NewMonitor(n int, involved []int) *Monitor {
	entry, _ := detect.Lookup(pred.Conjunctive, detect.ModalityPossibly)
	det, err := entry.New(pred.Spec{Family: pred.Conjunctive, Var: "truth"},
		detect.Config{Procs: n, Involved: involved})
	if err != nil {
		panic("gpd: NewMonitor: " + err.Error())
	}
	return &Monitor{
		n:        n,
		detected: make(chan struct{}),
		det:      det,
		witness:  det.(interface{ Witness() []VC }).Witness,
	}
}

// Detected returns a channel closed when the predicate has been detected.
func (m *Monitor) Detected() <-chan struct{} { return m.detected }

// Witness returns the vector timestamps of the detected true events (one
// per involved process), or nil if nothing has been detected yet. The
// caller owns the returned clocks.
func (m *Monitor) Witness() []VC {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.witness()
}

// Shutdown stops detection: later reports are dropped. It is idempotent,
// safe to call concurrently with in-flight Probe reports, and never
// blocks a probe.
func (m *Monitor) Shutdown() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// report feeds one true-event timestamp to the detector.
func (m *Monitor) report(proc int, vc VC) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.det.Possibly() {
		return
	}
	// The conjunctive detector's Step only buffers the timestamp and
	// cannot fail; Flush runs the elimination sweep.
	_ = m.det.Step(detect.Event{Proc: proc, VC: vc, Truth: true})
	if m.det.Flush() {
		close(m.detected)
	}
}

// Probe instruments one application process. A Probe is confined to its
// process's goroutine; probes of different processes may run
// concurrently.
type Probe struct {
	mon   *Monitor
	clock *vclock.Clock
}

// Probe creates the instrument for process p.
func (m *Monitor) Probe(p int) *Probe {
	return &Probe{mon: m, clock: vclock.NewClock(p, m.n)}
}

// Internal records an internal event; truth is the local predicate value
// in the new state.
func (pr *Probe) Internal(truth bool) { pr.stamp(pr.clock.Event(), truth) }

// Send records a send event and returns the vector timestamp to piggyback
// on the outgoing message.
func (pr *Probe) Send(truth bool) VC { return pr.stamp(pr.clock.Send(), truth) }

// Receive records the delivery of a message carrying the given timestamp.
func (pr *Probe) Receive(stamp VC, truth bool) { pr.stamp(pr.clock.Receive(stamp), truth) }

func (pr *Probe) stamp(vc VC, truth bool) VC {
	if truth {
		pr.mon.report(pr.clock.Self(), vc)
	}
	return vc
}
