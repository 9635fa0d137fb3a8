// Package conjunctive implements detection of conjunctive predicates — the
// conjunction of one local predicate per process — under the Possibly
// modality, following Garg and Waldecker's CPDHB algorithm ("Detection of
// weak unstable predicates in distributed programs", IEEE TPDS 1994).
//
// The key fact (Observation 1 of Mittal & Garg) is that a consistent cut
// satisfying the conjunction exists iff there are pairwise consistent true
// events, one on each involved process. Two events e (on p) and f are
// inconsistent iff next(e) happened-before-or-equals f, which in vector
// clock terms is clock(f)[p] > clock(e)[p]. The algorithm keeps one
// candidate true event per process and eliminates any candidate whose
// successor is known to another candidate; each elimination advances one
// cursor, so the running time is linear in the number of true events times
// the number of process pairs checked.
//
// The same inequality drives the online Checker, which consumes vector
// timestamps of true events streamed by the application processes.
package conjunctive

import (
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// LocalPredicate evaluates a process-local predicate at the state following
// an event.
type LocalPredicate func(computation.Event) bool

// Result is the outcome of an offline detection.
type Result struct {
	// Found reports whether Possibly(conjunction) holds.
	Found bool
	// Witness, when Found, holds one true event per involved process;
	// the events are pairwise consistent.
	Witness []computation.EventID
	// Cut, when Found, is the least consistent cut passing through all
	// witness events.
	Cut computation.Cut
	// Eliminated counts candidate eliminations performed; exposed for
	// the benchmark harness.
	Eliminated int
}

// DetectTraced runs the offline CPDHB algorithm on a sealed computation.
// locals maps each involved process to its local predicate; processes
// absent from the map are unconstrained. An empty map yields Found with
// the initial cut. Work counters accumulate into the trace: candidate
// (true) events enumerated and tokens advanced (candidate eliminations,
// the unit of CPDHB progress).
func DetectTraced(c *computation.Computation, locals map[computation.ProcID]LocalPredicate, tr *obs.Trace) Result {
	procs := make([]computation.ProcID, 0, len(locals))
	for p := range locals {
		procs = append(procs, p)
	}
	// Map iteration order is random; canonicalize so elimination order —
	// and with it the work counters — is a pure function of the input.
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	// Candidate queues: the true events of each involved process.
	queues := make([][]computation.EventID, len(procs))
	total := int64(0)
	for i, p := range procs {
		pred := locals[p]
		for _, id := range c.ProcEvents(p) {
			if pred(c.Event(id)) {
				queues[i] = append(queues[i], id)
			}
		}
		total += int64(len(queues[i]))
		if len(queues[i]) == 0 {
			tr.Add("conjunctive.candidate_events", total)
			return Result{}
		}
	}
	tr.Add("conjunctive.candidate_events", total)
	cur := make([]int, len(procs))
	res := eliminate(c, procs, queues, cur)
	tr.Add("conjunctive.tokens_advanced", int64(res.Eliminated))
	if !res.Found {
		return res
	}
	res.Cut = c.CutThrough(res.Witness...)
	return res
}

// eliminate advances cursors until the candidates are pairwise consistent
// or some queue is exhausted.
func eliminate(
	c *computation.Computation,
	procs []computation.ProcID,
	queues [][]computation.EventID,
	cur []int,
) Result {
	eliminated := 0
	// dirty holds process slots whose candidate changed and must be
	// rechecked against all others.
	dirty := make([]int, len(procs))
	inDirty := make([]bool, len(procs))
	for i := range procs {
		dirty[i] = i
		inDirty[i] = true
	}
	bump := func(i int) bool {
		cur[i]++
		eliminated++
		if cur[i] >= len(queues[i]) {
			return false
		}
		if !inDirty[i] {
			dirty = append(dirty, i)
			inDirty[i] = true
		}
		return true
	}
	for len(dirty) > 0 {
		i := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		inDirty[i] = false
		ei := queues[i][cur[i]]
		ci := c.Clock(ei)
		for j := range procs {
			if j == i {
				continue
			}
			ej := queues[j][cur[j]]
			cj := c.Clock(ej)
			pi, pj := int(procs[i]), int(procs[j])
			// next(e_i) <= e_j ?
			if cj[pi] > ci[pi] {
				if !bump(i) {
					return Result{Eliminated: eliminated}
				}
				ei = queues[i][cur[i]]
				ci = c.Clock(ei)
				continue
			}
			// next(e_j) <= e_i ?
			if ci[pj] > cj[pj] {
				if !bump(j) {
					return Result{Eliminated: eliminated}
				}
			}
		}
	}
	witness := make([]computation.EventID, len(procs))
	for i := range procs {
		witness[i] = queues[i][cur[i]]
	}
	return Result{Found: true, Witness: witness, Eliminated: eliminated}
}

// Checker is the online weak-conjunctive detector. Application processes
// stream the vector timestamps of their true events (in local order); the
// checker reports as soon as a pairwise-consistent set, one true event per
// involved process, is known.
//
// Checker is not safe for concurrent use; serialize calls to ObserveBatch
// (internal/detect wraps it behind the Detector interface, which
// sessions confine to one goroutine and gpd.Monitor guards with a mutex).
type Checker struct {
	procs []int         // involved processes, in slot order
	slot  map[int]int   // process -> slot
	queue [][]vclock.VC // pending true-event timestamps per slot
	found bool
	wit   []vclock.VC
}

// NewChecker returns a checker for the given involved processes. Timestamp
// components are indexed by absolute process id.
func NewChecker(procs []int) *Checker {
	ch := &Checker{
		procs: append([]int(nil), procs...),
		slot:  make(map[int]int, len(procs)),
		queue: make([][]vclock.VC, len(procs)),
	}
	for i, p := range procs {
		ch.slot[p] = i
	}
	return ch
}

// Found reports whether the predicate has been detected.
func (ch *Checker) Found() bool { return ch.found }

// Witness returns the timestamps of the detected true events, one per
// involved process in the order passed to NewChecker, or nil if not found.
func (ch *Checker) Witness() []vclock.VC {
	if !ch.found {
		return nil
	}
	out := make([]vclock.VC, len(ch.wit))
	for i, vc := range ch.wit {
		out[i] = vc.Clone()
	}
	return out
}

// ObserveBatch feeds a batch of true-event timestamps of one process (in
// local order) and returns whether the predicate has (now or earlier)
// been detected. Batches from a process must arrive in that process's
// local order; batches from different processes may interleave
// arbitrarily. The elimination sweep runs once per batch rather than
// once per event, which is how the streaming engine amortises detector
// steps.
func (ch *Checker) ObserveBatch(proc int, vcs []vclock.VC) bool {
	if ch.found {
		return true
	}
	i, ok := ch.slot[proc]
	if !ok {
		return false // not an involved process
	}
	for _, vc := range vcs {
		ch.queue[i] = append(ch.queue[i], vc.Clone())
	}
	ch.sweep()
	return ch.found
}

// Pending returns the total number of queued candidate events.
func (ch *Checker) Pending() int {
	n := 0
	for _, q := range ch.queue {
		n += len(q)
	}
	return n
}

// sweep runs the elimination loop over the queue heads. A head can only be
// eliminated when every queue is non-empty (otherwise a not-yet-seen event
// might be consistent with it), which mirrors the token-based algorithm.
func (ch *Checker) sweep() {
	for {
		for i := range ch.queue {
			if len(ch.queue[i]) == 0 {
				return // must wait for more observations
			}
		}
		advanced := false
		for i := range ch.queue {
			hi := ch.queue[i][0]
			pi := ch.procs[i]
			for j := range ch.queue {
				if j == i || len(ch.queue[j]) == 0 {
					continue
				}
				hj := ch.queue[j][0]
				if hj[pi] > hi[pi] {
					// next(head_i) is known to head_j: head_i can
					// never be consistent with current or later
					// candidates on j.
					ch.queue[i] = ch.queue[i][1:]
					advanced = true
					break
				}
			}
			if advanced {
				break
			}
		}
		if advanced {
			continue
		}
		// Stable and all queues non-empty: the heads are pairwise
		// consistent.
		ch.found = true
		ch.wit = make([]vclock.VC, len(ch.queue))
		for i := range ch.queue {
			ch.wit[i] = ch.queue[i][0]
		}
		return
	}
}
