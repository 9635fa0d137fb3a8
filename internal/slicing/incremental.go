package slicing

import (
	"fmt"
	"math"
)

// IncrementalSlicer maintains the slice of a conjunctive predicate —
// the canonical regular predicate — under event arrival in causal
// order, without ever holding the whole computation.
//
// The offline constructor (Compute) walks a sealed computation; the
// incremental slicer receives the same information one event at a time:
// the event's process, its online vector clock (component q = events of
// process q in the causal past, inclusive; initial states are not
// events) and the local predicate's truth after the event. From that it
// maintains exactly the state the slice is made of:
//
//   - the slice bottom (the least satisfying cut), found by running the
//     linear-predicate advancement online from the initial cut — once
//     found it is final, because satisfying cuts of a prefix are
//     satisfying cuts of every extension and the global least lies
//     inside the first prefix that satisfies the predicate;
//   - one join-irreducible J_B(e) per event — the least satisfying cut
//     containing e — computed by the same advancement started at
//     CutThrough(e). J_B is monotone along each process, so at most one
//     advancement per process is ever active: the one for the oldest
//     event whose J_B is still unknown. Later events of the process
//     queue behind it and inherit the completed cut as a floor.
//
// New events therefore either extend an active least cut (their arrival
// un-stalls an advancement), create a new irreducible (their own
// advancement completes), or — once the stream is sealed — turn out to
// be excluded from the slice because their advancement ran off the end
// of some process.
//
// Everything below the cuts still being advanced can never be read
// again: advancement only moves up, and events not yet observed start
// at their own causal past joined with the bottom. Compact exploits
// that to drop the dominated prefix of each process log, which is what
// bounds the slicer's memory to O(slice frontier) instead of O(history).
//
// No serving path runs it: a conjunctive stream session reads the two
// facts it needs at close (empty slice, top at the final cut) from its
// endpoints instead, and TestSlicedSessionMatchesSlicer holds that rule
// to this slicer.
//
// An IncrementalSlicer is confined to one goroutine.
type IncrementalSlicer struct {
	procs   int
	initial []bool

	logs []procLog

	// bottomK is the bottom advancement's cut. Invariant: every
	// satisfying cut of every extension of the observed prefix is ≥
	// bottomK, so it is a sound floor for new irreducible advancements
	// even before it completes.
	bottomK  []int
	possibly bool

	// top is the running join of the bottom and every completed
	// irreducible — the greatest cut the slice represents so far.
	top []int

	sealed bool

	// OnIrreducible, when set before the first Observe, is called once
	// per completed join-irreducible with the event's process, its
	// 1-based index on that process, and J_B(e). The cut is owned by
	// the callee.
	OnIrreducible func(proc, index int, least []int)
}

// procLog is one process's retained event suffix plus its irreducible
// advancement state.
type procLog struct {
	base  int       // events 1..base have been compacted away
	truth []bool    // truth[i] belongs to the event with index base+1+i
	vcs   [][]int64 // vector clocks, same indexing
	last  []int64   // clock of the last observed event; nil if none

	jnext int   // 1-based index of the oldest event with unknown J_B
	jcut  []int // active advancement cut for event jnext; nil if idle
	prevJ []int // last completed J_B on this process
}

func (l *procLog) total() int { return l.base + len(l.truth) }

// NewIncrementalSlicer builds a slicer for a computation of procs
// processes. initial gives the per-process truth of the local predicate
// in the initial state (nil means all false, the streaming convention);
// processes that carry no local predicate should be marked true so they
// never constrain a cut.
func NewIncrementalSlicer(procs int, initial []bool) *IncrementalSlicer {
	if procs <= 0 {
		panic(fmt.Sprintf("slicing: NewIncrementalSlicer needs at least one process, got %d", procs))
	}
	init := make([]bool, procs)
	copy(init, initial)
	s := &IncrementalSlicer{
		procs:   procs,
		initial: init,
		logs:    make([]procLog, procs),
		bottomK: make([]int, procs),
		top:     make([]int, procs),
	}
	for p := range s.logs {
		s.logs[p].jnext = 1
	}
	return s
}

// Observe ingests one causally delivered event: the next event of
// process proc, with online vector clock vc and local predicate truth
// after the event. The slicer retains vc without copying; the caller
// must not modify it afterwards. Observe errors when the event is out
// of order (its own component must be exactly one past the process's
// log) or causally premature (a remote component exceeds that process's
// observed log).
func (s *IncrementalSlicer) Observe(proc int, vc []int64, truth bool) error {
	if s.sealed {
		return fmt.Errorf("slicing: Observe after Seal")
	}
	if proc < 0 || proc >= s.procs {
		return fmt.Errorf("slicing: event process %d out of range [0,%d)", proc, s.procs)
	}
	if len(vc) != s.procs {
		return fmt.Errorf("slicing: event clock has %d components, want %d", len(vc), s.procs)
	}
	l := &s.logs[proc]
	if got, want := vc[proc], int64(l.total()+1); got != want {
		return fmt.Errorf("slicing: out-of-order event on process %d: own clock component %d, want %d", proc, got, want)
	}
	for r := 0; r < s.procs; r++ {
		if r != proc && vc[r] > int64(s.logs[r].total()) {
			return fmt.Errorf("slicing: event on process %d delivered before its causal past: component %d is %d, process %d has %d events", proc, r, vc[r], r, s.logs[r].total())
		}
	}
	l.truth = append(l.truth, truth)
	l.vcs = append(l.vcs, vc)
	l.last = vc
	if l.jnext == l.total() && l.jcut == nil {
		l.jcut = s.startCut(vc, l.prevJ)
	}
	s.pump()
	return nil
}

// startCut is the floor a new irreducible advancement starts from: the
// event's own causal past, joined with the previous irreducible of the
// process (J_B is monotone along a process) and the bottom floor.
func (s *IncrementalSlicer) startCut(vc []int64, prevJ []int) []int {
	k := make([]int, s.procs)
	for r := range k {
		k[r] = int(vc[r])
		if prevJ != nil && prevJ[r] > k[r] {
			k[r] = prevJ[r]
		}
		if s.bottomK[r] > k[r] {
			k[r] = s.bottomK[r]
		}
	}
	return k
}

// pump drives every active advancement as far as the observed prefix
// allows: the bottom first (its floor feeds new starts), then each
// process's head irreducible, popping the queue while heads complete.
func (s *IncrementalSlicer) pump() {
	if !s.possibly {
		if s.tryAdvance(s.bottomK) {
			s.possibly = true
			s.joinTop(s.bottomK)
		}
	}
	for p := range s.logs {
		l := &s.logs[p]
		for l.jcut != nil && s.tryAdvance(l.jcut) {
			s.completeJ(p)
		}
	}
}

// completeJ records the head irreducible of process p and starts the
// next queued event's advancement, if any.
func (s *IncrementalSlicer) completeJ(p int) {
	l := &s.logs[p]
	j := l.jcut
	l.jcut = nil
	s.joinTop(j)
	if s.OnIrreducible != nil {
		out := make([]int, len(j))
		copy(out, j)
		s.OnIrreducible(p, l.jnext, out)
	}
	l.prevJ = j
	l.jnext++
	if l.jnext <= l.total() {
		l.jcut = s.startCut(l.vcs[l.jnext-1-l.base], j)
	}
}

// tryAdvance runs the linear-predicate advancement on k over the
// observed prefix: while some process's local predicate fails at k,
// execute the next event of a failing process that has one. It returns
// true when k satisfies the predicate (k is then the least satisfying
// cut above the starting cut) and false when every failing process is
// stalled waiting for an event that has not arrived. For a conjunctive
// predicate every failing process must advance, so executing them in
// arrival-availability order reaches the same least cut the offline
// first-failing walk does.
func (s *IncrementalSlicer) tryAdvance(k []int) bool {
	for {
		holds, moved := true, false
		for p := 0; p < s.procs; p++ {
			if s.truthAt(p, k[p]) {
				continue
			}
			holds = false
			l := &s.logs[p]
			next := k[p] + 1
			if next > l.total() {
				continue
			}
			vc := l.vcs[next-1-l.base]
			for r := range k {
				if v := int(vc[r]); v > k[r] {
					k[r] = v
				}
			}
			moved = true
			break
		}
		if holds {
			return true
		}
		if !moved {
			return false
		}
	}
}

func (s *IncrementalSlicer) truthAt(p, idx int) bool {
	if idx == 0 {
		return s.initial[p]
	}
	return s.logs[p].truth[idx-1-s.logs[p].base]
}

func (s *IncrementalSlicer) joinTop(k []int) {
	for r := range s.top {
		if k[r] > s.top[r] {
			s.top[r] = k[r]
		}
	}
}

// Seal marks the stream complete. Advancements still stalled can never
// complete — every failing process has run out of events — so their
// events are excluded from the slice, exactly the events the offline
// constructor finds no join-irreducible for. After Seal, Possibly reporting
// false means the slice is empty (no consistent cut ever satisfied the
// predicate).
func (s *IncrementalSlicer) Seal() {
	if s.sealed {
		return
	}
	s.pump()
	s.sealed = true
	for p := range s.logs {
		l := &s.logs[p]
		if l.jcut != nil || l.jnext <= l.total() {
			// The head is stalled with every event present, so no
			// satisfying cut contains event jnext — nor any later event
			// of the process, whose cuts all contain jnext.
			l.jcut = nil
			l.jnext = l.total() + 1
		}
	}
}

// Compact drops every retained event that no advancement — active or
// future — can ever read again, and returns how many events it freed.
// The per-component low-water mark is the minimum over the bottom
// advancement's cut (while incomplete), every active irreducible cut,
// and the floor of events not yet observed: their advancements start at
// their own causal past joined with the bottom, and a process's future
// clocks dominate its last observed clock.
func (s *IncrementalSlicer) Compact() int64 {
	keep := make([]int, s.procs)
	for r := range keep {
		m := math.MaxInt
		if !s.sealed {
			f := math.MaxInt
			for p := range s.logs {
				v := 0
				if s.logs[p].last != nil {
					v = int(s.logs[p].last[r])
				}
				if v < f {
					f = v
				}
			}
			if s.bottomK[r] > f {
				f = s.bottomK[r]
			}
			if f < m {
				m = f
			}
			if !s.possibly && s.bottomK[r] < m {
				m = s.bottomK[r]
			}
		}
		for p := range s.logs {
			if s.logs[p].jcut != nil && s.logs[p].jcut[r] < m {
				m = s.logs[p].jcut[r]
			}
		}
		keep[r] = m
	}
	for p := range s.logs {
		// A non-empty irreducible queue still needs its own rows: the
		// head's truth may be read at its own index, and each completion
		// starts the next advancement from the next event's clock — even
		// when the active cut has already climbed past them.
		if l := &s.logs[p]; l.jnext <= l.total() && l.jnext < keep[p] {
			keep[p] = l.jnext
		}
	}
	var dropped int64
	for p := range s.logs {
		l := &s.logs[p]
		hi := keep[p] - 1 // highest index no longer readable
		if hi > l.total() {
			hi = l.total()
		}
		if hi <= l.base {
			continue
		}
		n := hi - l.base
		rest := len(l.vcs) - n
		copy(l.truth, l.truth[n:])
		l.truth = l.truth[:rest]
		copy(l.vcs, l.vcs[n:])
		for i := rest; i < rest+n; i++ {
			l.vcs[i] = nil // release the dropped clocks
		}
		l.vcs = l.vcs[:rest]
		l.base += n
		dropped += int64(n)
	}
	return dropped
}

// Retained returns the number of events currently held across all
// processes.
func (s *IncrementalSlicer) Retained() int {
	n := 0
	for p := range s.logs {
		n += len(s.logs[p].truth)
	}
	return n
}

// Possibly reports whether some consistent cut of the observed prefix
// satisfies the predicate — equivalently, whether the slice bottom has
// been found. Once true it stays true, and the bottom is final.
//
//lint:ignore testonly oracle for a conjunctive stream session's close-time verdicts in TestSlicedSessionMatchesSlicer
func (s *IncrementalSlicer) Possibly() bool { return s.possibly }

// Top returns the running join of the bottom and every completed
// irreducible — after Seal, the greatest cut of the slice.
//
//lint:ignore testonly oracle for a conjunctive stream session's close-time verdicts in TestSlicedSessionMatchesSlicer
func (s *IncrementalSlicer) Top() []int {
	out := make([]int, s.procs)
	copy(out, s.top)
	return out
}
