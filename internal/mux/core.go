package mux

// Shared range cores. The range-based families decide from the
// [min, max] of one sum over consistent cuts, which depends on the
// variable and the payload but not on the predicate, so the group keeps
// one detect.RangeCore per (route variable, payload, registration cut),
// steps it once per delivered event and flushes it once per group
// flush; each predicate over it is a detect.RangeView folding the
// flushed extrema. DESIGN.md carries the argument that moving a view
// onto an older core (absorb) is exact.

import (
	"fmt"
	"slices"

	"github.com/distributed-predicates/gpd/internal/detect"
)

// groupCore is one shared range core and its subscribers.
type groupCore struct {
	core     *detect.RangeCore
	routeVar string
	payload  detect.Payload
	cut      []int64 // registration cut, in the variable's projected clocks
	init     []int64 // per-process values the core started from
	// seeded: init is the variable's delivered state at cut (not an
	// explicit Init that differs from it), so the core's sum agrees
	// with every other seeded core of the variable on the cuts both
	// cover — up to a constant for delta payloads.
	seeded bool
	views  []*predicate // active subscribers
	dirty  bool         // stepped since the last flush
	steps  int64        // events stepped: each is one logical step of every view subscribed at the time
	window int          // core window as of the last flush
}

// coreFor returns the core a registration of the variable and payload
// attaches to at the current cut, creating it when no core of the same
// cut and initial values exists. explicit is Registration.Init.
func (g *Group) coreFor(routeVar string, payload detect.Payload, explicit []int64) (*groupCore, error) {
	if payload == detect.PayloadDelta && len(explicit) > 0 {
		return nil, fmt.Errorf("predicates over a per-event delta take no initial values (the quantity counts from zero at registration)")
	}
	cut, seed := make([]int64, g.procs), make([]int64, g.procs)
	if pj := g.projs[routeVar]; pj != nil {
		pj.cut(cut)
	}
	copy(seed, g.seedInit(routeVar, payload))
	init := seed
	if explicit != nil {
		// Padded, never truncated: an over-long or out-of-range Init
		// matches no live core and is refused by NewRangeCore below.
		init = make([]int64, max(g.procs, len(explicit)))
		copy(init, explicit)
	}
	for _, c := range g.cores[routeVar] {
		if c.payload == payload && slices.Equal(c.cut, cut) && slices.Equal(c.init, init) {
			return c, nil
		}
	}
	coreInit := init
	if payload == detect.PayloadDelta {
		coreInit = nil
	}
	core, err := detect.NewRangeCore(g.procs, payload, coreInit, cut)
	if err != nil {
		return nil, err
	}
	c := &groupCore{
		core: core, routeVar: routeVar, payload: payload,
		cut: cut, init: init, seeded: slices.Equal(init, seed),
	}
	g.cores[routeVar] = append(g.cores[routeVar], c)
	g.ncores++
	return c, nil
}

// dropCore removes an emptied core. Deleting shifts only the younger
// cores of the variable, so loops walking the list from its young end
// (stepCores, absorb) may drop the core they are at.
func (g *Group) dropCore(c *groupCore) {
	list := g.cores[c.routeVar]
	i := slices.Index(list, c)
	g.cores[c.routeVar] = slices.Delete(list, i, i+1)
	c.views, c.core = nil, nil
	g.ncores--
	g.unsubscribed(c.routeVar)
}

// sift keeps the views keep reports true for; keep runs once per view,
// in order, and may retire the view it is handed.
func (c *groupCore) sift(keep func(*predicate) bool) {
	kept := c.views[:0]
	for _, p := range c.views {
		if keep(p) {
			kept = append(kept, p)
		}
	}
	clear(c.views[len(kept):])
	c.views = kept
}

// settle moves the core steps a view has not been charged for yet into
// its owed count: a view's logical steps are its core's since it joined.
func (p *predicate) settle() {
	p.owed += p.core.steps - p.seen
	p.seen = p.core.steps
}

// leave takes a retired view off its core, dropping the core with its
// last view.
func (g *Group) leave(p *predicate) {
	c := p.core
	c.sift(func(q *predicate) bool { return q != p })
	if len(c.views) == 0 {
		g.dropCore(c)
	}
}

// stepCores feeds one projected event to every core of its variable and
// returns the logical detector steps taken: one per subscribed view. A
// failed step fails the views it is fatal for — a non-unit step those
// that need unit steps (==), an out-of-bounds one all of them — and
// leaves the rest of the core's views running.
func (g *Group) stepCores(cores []*groupCore, pe detect.Event) int {
	stepped := 0
	for i := len(cores) - 1; i >= 0; i-- {
		c := cores[i]
		stepped += len(c.views)
		c.steps++
		err := c.core.Step(pe)
		if !c.dirty {
			c.dirty = true
			g.dirtyCores = append(g.dirtyCores, c)
		}
		if err == nil {
			continue
		}
		c.sift(func(p *predicate) bool {
			if p.view.Fatal(err) {
				g.failPred(p, err)
				return false
			}
			return true
		})
		if len(c.views) == 0 {
			g.dropCore(c)
		}
	}
	return stepped
}

// flushCore flushes one dirty core, charges every view its share of the
// core's steps, folds the flushed extrema into each view and latches
// the ones that now hold.
func (g *Group) flushCore(c *groupCore) {
	c.dirty = false
	if len(c.views) == 0 {
		return // emptied and dropped since it was stepped
	}
	lo, hi := c.core.Flush()
	g.coreFlushes++
	w := c.core.Window()
	g.windowSum += (w - c.window) * len(c.views)
	c.window = w
	c.sift(func(p *predicate) bool {
		p.settle()
		g.charge(p)
		if p.view.Fold(lo, hi) {
			g.latch(p)
			return false
		}
		return true
	})
	if len(c.views) == 0 {
		g.dropCore(c)
	}
}

// absorb moves onto a just-flushed seeded core the views of every
// younger seeded core of its variable and payload whose registration
// cut it has pruned past, so registration churn does not creep back to
// one core per predicate.
func (g *Group) absorb(a *groupCore) {
	list := g.cores[a.routeVar]
	for i := len(list) - 1; list[i] != a; i-- {
		b := list[i]
		if b.payload != a.payload || !b.seeded || !a.core.PrunedPast(b.cut) {
			continue
		}
		for _, p := range b.views {
			p.view.Attach(a.core)
			p.core, p.seen = a, a.steps
		}
		g.windowSum += (a.window - b.window) * len(b.views)
		a.views = append(a.views, b.views...)
		g.dropCore(b)
	}
}
