package detect

// frontier is the causal bookkeeping of the range core: it packs
// (process, local index) pairs into the tracker id space, derives an
// event's direct causal dependencies from its timestamp, and tracks the
// common vector-clock frontier below which events are stable — in the
// causal past of every event yet to arrive — and therefore safe to fold
// into a tracker baseline (see relsum.RangeTracker).
type frontier struct {
	procs      int
	lastVC     [][]int64 // timestamp of the last delivered event per process
	prunedUpto []int64   // per-process local index already folded away

	// Scratch reused across calls; the returned slices are only valid
	// until the next call of the same method.
	reqs, ids, min []int64
}

// newFrontier starts a frontier at the given cut: the per-process local
// indices already behind the stream's first event (nil: the stream
// starts at index 1 everywhere). Nothing at or below the cut is ever
// reported stable — a consumer joining a long-running stream must not
// pay for the indices that preceded it.
func newFrontier(procs int, cut []int64) *frontier {
	f := &frontier{
		procs:      procs,
		lastVC:     make([][]int64, procs),
		prunedUpto: make([]int64, procs),
		min:        make([]int64, procs),
		reqs:       make([]int64, procs),
	}
	copy(f.prunedUpto, cut)
	return f
}

// id packs a (process, local index) pair into the tracker id space.
func (f *frontier) id(proc int, index int64) int64 {
	return index*int64(f.procs) + int64(proc)
}

// requires derives the event's causal dependencies from its timestamp:
// its local predecessor and, per other process, the latest event of
// that process in its causal past — where that component moved since the
// process's previous delivered clock. An unmoved component names an
// event already below the local predecessor, which implies it (or was
// pruned with it: the stable set is downward closed), so the window's
// ideals are the same without the arc. With no previous clock — the
// first event after the frontier's cut — every component counts.
func (f *frontier) requires(ev Event) []int64 {
	reqs, n := f.reqs, 0
	if own := ev.VC[ev.Proc]; own >= 2 {
		reqs[n] = f.id(ev.Proc, own-1)
		n++
	}
	prev := f.lastVC[ev.Proc]
	for q, v := range ev.VC {
		if q != ev.Proc && v >= 1 && (prev == nil || v > prev[q]) {
			reqs[n] = f.id(q, v)
			n++
		}
	}
	return reqs[:n]
}

// observe records a delivered event's timestamp. It is copied, into one
// slice per process allocated once: the event's clock may share memory
// with its whole decoded frame, which must not live as long as this.
func (f *frontier) observe(ev Event) {
	if f.lastVC[ev.Proc] == nil {
		f.lastVC[ev.Proc] = make([]int64, f.procs, f.procs)
	}
	copy(f.lastVC[ev.Proc], ev.VC)
}

// stable returns the ids that fell below the component-wise minimum of
// the processes' latest timestamps since the last call: those events
// are in the causal past of every event yet to arrive, so every cut
// still to be formed contains them. Returns nil while some process has
// not reported yet.
func (f *frontier) stable() []int64 {
	min := f.min
	for q := range min {
		min[q] = int64(1) << 62
	}
	for _, vc := range f.lastVC {
		if vc == nil {
			return nil // a process has not reported yet: nothing is stable
		}
		for q, v := range vc {
			if v < min[q] {
				min[q] = v
			}
		}
	}
	ids := f.ids[:0]
	for q := 0; q < f.procs; q++ {
		for i := f.prunedUpto[q] + 1; i <= min[q]; i++ {
			ids = append(ids, f.id(q, i))
		}
		if min[q] > f.prunedUpto[q] {
			f.prunedUpto[q] = min[q]
		}
	}
	f.ids = ids
	if len(ids) == 0 {
		return nil
	}
	return ids
}
