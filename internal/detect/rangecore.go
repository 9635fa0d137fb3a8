package detect

import (
	"errors"
	"fmt"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// The range-based families — sum, inflight, count, xor, levels — all
// decide Possibly from one quantity: the [min, max] a sum attains over
// the consistent cuts of the observed prefix (Theorem 4 and the
// symmetric corollary of §4.3). That quantity depends on the variable
// and its payload, not on the relop, the threshold or the level set, so
// the detector is split in two: a RangeCore owning everything the
// predicate does not influence, and a RangeView per predicate folding
// the core's per-flush extrema into its own verdict. A detector built
// through Entry.New is a view over a private core; a transport that
// multiplexes many predicates of one variable builds one core and
// attaches every view to it (Entry.View).

// RangeCore is the predicate-independent half of a range-based
// detector: payload decoding, causal bookkeeping and the sum's range
// tracker over the retained window. Confined to one goroutine.
type RangeCore struct {
	fr      *frontier
	tracker *relsum.RangeTracker
	payload Payload
	lastVal []int64 // value after the last delivered event (PayloadValue, PayloadTruth)
	sum     int64   // the sum at the cut of everything stepped so far
	err     error   // sticky: a refused step (relsum.ErrStepTooLarge)
}

// NewRangeCore starts a core over procs processes consuming the given
// payload. init gives the per-process values at the core's first cut
// (nil: all zero; delta payloads count from zero and take none; truth
// payloads take 0/1) and is validated here, the one place every route —
// batch replay, plain session, mux registration — crosses. cut is
// that first cut in the stream's own clocks — the per-process local
// indices already behind it — for a core joining a running stream; nil
// starts at the beginning.
func NewRangeCore(procs int, payload Payload, init, cut []int64) (*RangeCore, error) {
	if payload == PayloadDelta && len(init) > 0 {
		return nil, fmt.Errorf("detect: inflight detectors take no initial values (occupancy starts at 0)")
	}
	if len(init) > procs {
		return nil, fmt.Errorf("detect: %d initial values for %d processes", len(init), procs)
	}
	if payload == PayloadTruth {
		for p, v := range init {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("detect: initial value %d of process %d is not a 0/1 truth value", v, p)
			}
		}
	}
	c := &RangeCore{
		fr:      newFrontier(procs, cut),
		payload: payload,
		lastVal: make([]int64, procs),
	}
	copy(c.lastVal, init)
	for _, v := range c.lastVal {
		c.sum += v
	}
	c.tracker = relsum.NewRangeTracker(c.sum)
	return c, nil
}

// Step consumes one causally delivered event. The returned error is
// non-nil when the event changes the sum by more than one: fatal for
// the views that need unit steps (==), ignored by the rest — the event
// is part of the window either way — or by more than the kernels
// support (relsum.ErrStepTooLarge): fatal for every view and sticky,
// since the refused event leaves the window incomplete.
//
//lint:hotpath
func (c *RangeCore) Step(ev Event) error {
	if c.err != nil {
		return c.err
	}
	p := ev.Proc
	after := ev.Val
	if c.payload == PayloadTruth {
		after = 0
		if ev.Truth {
			after = 1
		}
	}
	// A delta core's lastVal stays zero: its payload is the change itself.
	change, err := relsum.Step(after, c.lastVal[p])
	if err != nil {
		c.err = fmt.Errorf("%w: process %d event %d", err, p, ev.VC[p])
		return c.err
	}
	if c.payload != PayloadDelta {
		c.lastVal[p] = after
	}
	c.sum += change
	id := c.fr.id(p, ev.VC[p])
	c.tracker.Observe(id, change, c.fr.requires(ev))
	c.fr.observe(ev)
	if change > 1 || change < -1 {
		return fmt.Errorf("%w: process %d event %d changes by %d",
			relsum.ErrNotUnitStep, p, ev.VC[p], change)
	}
	return nil
}

// Flush advances the core over the events stepped since the last flush
// (two closure computations over the retained window), prunes the
// window below the common frontier, and returns the extrema over the
// cuts of the flushed window. Views fold them; with nothing stepped the
// previous pair is returned again, which folds to a no-op.
func (c *RangeCore) Flush() (lo, hi int64) {
	c.tracker.Flush()
	if ids := c.fr.stable(); len(ids) > 0 {
		c.tracker.Prune(ids)
	}
	return c.tracker.WindowRange()
}

// Window returns the number of retained events.
func (c *RangeCore) Window() int { return c.tracker.Window() }

// PrunedPast reports whether the core has folded everything at or below
// the cut into its baseline: every cut its later flushes range over
// contains the cut.
func (c *RangeCore) PrunedPast(cut []int64) bool {
	for q, i := range cut {
		if c.fr.prunedUpto[q] < i {
			return false
		}
	}
	return true
}

// RangeView is one predicate over a RangeCore's sum: the running
// [min, max] since the view's first cut, the verdict latched from it,
// and the unit-step requirement of ==. Through the Detector interface
// it drives its core itself (the private-core case); a transport
// sharing the core steps and flushes the core once and hands every view
// the extrema through Fold.
type RangeView struct {
	core   *RangeCore
	spec   pred.Spec
	levels *symmetric.Spec // count, xor, levels: the satisfying true-counts; nil for sum, inflight
	off    int64           // core sum − view sum (a view re-attached to an older delta core counts from its own cut)

	first    int64 // the sum at the view's first cut
	min, max int64
	possibly bool
}

func newRangeView(s pred.Spec, levels *symmetric.Spec, core *RangeCore) *RangeView {
	v := &RangeView{core: core, spec: s, levels: levels, first: core.sum, min: core.sum, max: core.sum}
	// The first cut is a consistent cut: latch it right away.
	v.possibly = v.holdsOn(v.min, v.max)
	return v
}

// ownCore adapts a view constructor to Entry.New: the detector is the
// view over a private core built from the session configuration.
func ownCore(payload Payload, view func(pred.Spec, *RangeCore) *RangeView) func(pred.Spec, Config) (Detector, error) {
	return func(s pred.Spec, cfg Config) (Detector, error) {
		core, err := NewRangeCore(cfg.Procs, payload, cfg.Init, nil)
		if err != nil {
			return nil, err
		}
		return view(s, core), nil
	}
}

// holdsOn reports whether the predicate holds at some value the sum
// takes on its way between lo and hi, both attained. For the order
// operators and != the two values suffice with no step assumption; for
// = and for level sets the sum must move by unit steps (enforced for =,
// inherent in 0/1 variables), under which every integer in [lo, hi] is
// attained — the intermediate-value property of Theorem 4 lifted to
// the streaming setting. Over the exact extrema of the consistent cuts
// covered so far it decides Possibly.
func (v *RangeView) holdsOn(lo, hi int64) bool {
	if v.levels != nil {
		for _, m := range v.levels.Levels {
			if m >= 0 && m <= v.levels.N && int64(m) >= lo && int64(m) <= hi {
				return true
			}
		}
		return false
	}
	rel, k := v.spec.Rel, v.spec.K
	if rel == relsum.Eq {
		return lo <= k && k <= hi
	}
	return rel.Eval(lo, k) || rel.Eval(hi, k)
}

// Fatal reports whether a core step's error ends this view: a step past
// the kernels' bound ends every view, one changing the sum by more than
// one only the views that need unit steps (==).
func (v *RangeView) Fatal(err error) bool {
	return errors.Is(err, relsum.ErrStepTooLarge) || v.levels == nil && v.spec.Rel == relsum.Eq
}

// Fold widens the view's running extrema by one flushed window of its
// core and returns the latched verdict.
func (v *RangeView) Fold(lo, hi int64) bool {
	if lo -= v.off; lo < v.min {
		v.min = lo
	}
	if hi -= v.off; hi > v.max {
		v.max = hi
	}
	if !v.possibly && v.holdsOn(v.min, v.max) {
		v.possibly = true
	}
	return v.possibly
}

// Attach moves the view onto another core of the same variable and
// payload. Sound only between flushes (both cores flushed over the same
// delivered prefix) and once the new core has pruned past the cut the
// view started at: from then on its windows range over cuts the view
// owns, and the cuts it no longer forms were covered by the old core.
func (v *RangeView) Attach(core *RangeCore) {
	v.off += core.sum - v.core.sum
	v.core = core
}

func (v *RangeView) SetTrace(tr *obs.Trace) { v.core.tracker.SetTrace(tr) }

func (v *RangeView) Step(ev Event) error {
	if err := v.core.Step(ev); err != nil && v.Fatal(err) {
		return err
	}
	return nil
}

func (v *RangeView) Flush() bool { return v.Fold(v.core.Flush()) }

func (v *RangeView) Possibly() bool { return v.possibly }

// Touches bounds the detector's relevance set: the sum ranges over the
// named variable's events on every process (channel-occupancy views
// consume the reserved InFlightVar delta stream instead).
func (v *RangeView) Touches() Relevance {
	if v.core.payload == PayloadDelta {
		return Relevance{Vars: []string{InFlightVar}}
	}
	return Relevance{Vars: []string{v.spec.Var}}
}

func (v *RangeView) Window() int { return v.core.Window() }

func (v *RangeView) Snapshot() Snapshot {
	return Snapshot{Possibly: v.possibly, Window: v.core.Window(), Min: v.min, Max: v.max, HasRange: true}
}

// EndpointDefinitely decides Definitely from the endpoints: a
// predicate no cut satisfies is Definitely false, and one satisfied at
// a value every run passes through is Definitely true. Every run starts
// at the view's first cut and ends at the final cut; under unit steps
// (see holdsOn) it also passes through every value between the two.
func (v *RangeView) EndpointDefinitely() (holds, known bool) {
	if !v.possibly {
		return false, true
	}
	final := v.core.sum - v.off
	if v.holdsOn(min(v.first, final), max(v.first, final)) {
		return true, true
	}
	return false, false
}
