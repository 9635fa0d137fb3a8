package mux

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// costReg is one registration in the cost oracle: the sink the
// resolver handed out for it, and the logical steps it should have
// charged — the delivered events of its variable (on its processes)
// from its registration until the update that stopped it (a latch at a
// flush, a failure at the failing event) or its unregistration.
type costReg struct {
	id, tenant, family string
	routeVar           string
	procs              []bool // nil: every process
	live               bool
	resolved           int   // resolver calls that returned this registration's sink
	want, got          int64 // oracle steps, charged steps
}

// costHarness drives one Group with a cost resolver installed and keeps
// the oracle beside it.
type costHarness struct {
	t      *testing.T
	g      *Group
	vcs    [][]int64
	cur    map[string]*costReg // the registration an id names now
	regs   []*costReg          // every registration, retired ones included
	calls  int                 // resolver calls
	peak   int                 // most live cores seen after a flush
	latchd int                 // registrations stopped by a latch
	failed int                 // registrations stopped by a failure
}

func newCostHarness(t *testing.T, procs int) *costHarness {
	h := &costHarness{t: t, g: NewGroup(procs), vcs: make([][]int64, procs), cur: map[string]*costReg{}}
	for p := range h.vcs {
		h.vcs[p] = make([]int64, procs)
	}
	return h
}

// resolve is the group's cost resolver: one sink per registration.
func (h *costHarness) resolve(tenant, family, id string) func(int64) {
	h.calls++
	r := h.cur[id]
	if r == nil || tenant != r.tenant || family != r.family {
		h.t.Fatalf("resolver called with (%q, %q, %q), registered %+v", tenant, family, id, r)
	}
	r.resolved++
	return func(n int64) { r.got += n }
}

func (h *costHarness) register(id, tenant string, spec pred.Spec, involved []int) {
	h.t.Helper()
	r := &costReg{id: id, tenant: tenant, family: spec.Family.String(), routeVar: spec.Var, live: true}
	if involved != nil {
		r.procs = make([]bool, len(h.vcs))
		for _, p := range involved {
			r.procs[p] = true
		}
	}
	h.cur[id] = r
	h.regs = append(h.regs, r)
	if err := h.g.Register(Registration{ID: id, Tenant: tenant, Spec: spec, Involved: involved}); err != nil {
		h.t.Fatalf("register %s: %v", id, err)
	}
	h.drain() // a satisfied registration cut latches at once
}

func (h *costHarness) unregister(id string) {
	h.t.Helper()
	if err := h.g.Unregister(id); err != nil {
		h.t.Fatalf("unregister %s: %v", id, err)
	}
	h.cur[id].live = false
}

// step delivers the next event of process p, which first hears from
// its neighbour so the delivered frontier keeps advancing.
func (h *costHarness) step(p int, v string, val int64) {
	h.t.Helper()
	q := (p + 1) % len(h.vcs)
	for c := range h.vcs[p] {
		h.vcs[p][c] = max(h.vcs[p][c], h.vcs[q][c])
	}
	h.vcs[p][p]++
	ev := detect.Event{Proc: p, VC: append([]int64(nil), h.vcs[p]...), Var: v, Val: val, Truth: val > 0}
	if err := h.g.Step(ev); err != nil {
		h.t.Fatalf("step: %v", err)
	}
	for _, r := range h.regs {
		if r.live && r.routeVar == v && (r.procs == nil || r.procs[p]) {
			r.want++
		}
	}
	h.drain() // failures are queued at the failing event
}

func (h *costHarness) flush() {
	h.g.Flush()
	h.drain()
	h.peak = max(h.peak, h.g.Stats().Cores)
}

// drain stops every registration the group reported a latch or a
// failure for.
func (h *costHarness) drain() {
	for _, u := range h.g.Drain() {
		if u.Err != "" {
			h.failed++
		} else {
			h.latchd++
		}
		h.cur[u.ID].live = false
	}
}

// TestCostResolverOncePerRegistration: standalone predicates and range
// views on shared cores, under mid-stream registration, absorption onto
// an older core, latches, a failure, unregistration with owed steps and
// re-registration of the same id, with the resolver installed after the
// first registration. The resolver must run exactly once per
// registration, and every registration's sink must be charged exactly
// its logical steps — summing to Stats().Steps.
func TestCostResolverOncePerRegistration(t *testing.T) {
	const procs = 3
	h := newCostHarness(t, procs)
	sum := func(v string, rel relsum.Relop, k int64) pred.Spec {
		return pred.Spec{Family: pred.Sum, Var: v, Rel: rel, K: k}
	}
	count := func(v string, k int64) pred.Spec {
		return pred.Spec{Family: pred.Count, Var: v, Rel: relsum.Ge, K: k}
	}

	h.register("conj", "acme", pred.Spec{Family: pred.Conjunctive, Var: "y"}, []int{0, 1}) // y stays false
	h.g.OnCost(h.resolve)
	h.register("ge", "acme", sum("x", relsum.Ge, 4), nil)                            // latches once x sums to 4
	h.register("eq", "rival", sum("x", relsum.Eq, 100), nil)                         // fails at the first non-unit step
	h.register("cnt", "rival", count("x", 100), nil)                                 // truth payload: a second core
	h.register("conjx", "rival", pred.Spec{Family: pred.Conjunctive, Var: "x"}, nil) // latches in the first round
	h.register("init", "acme", sum("y", relsum.Ge, 0), nil)                          // true at the registration cut

	x := make([]int64, procs)
	round := func(d int64) {
		for p := 0; p < procs; p++ {
			x[p] += d
			h.step(p, "x", x[p])
			h.step(p, "y", 0)
		}
		h.flush()
	}
	round(1)
	// Mid-stream: a value core at this cut, absorbed once the first
	// value core prunes past it.
	h.register("late", "acme", sum("x", relsum.Le, -100), nil)
	coresAtLate := h.g.Stats().Cores
	round(0)
	round(1) // x sums to 6: ge latches
	round(0)
	round(0)
	if h.g.Stats().Cores >= coresAtLate {
		t.Fatalf("cores %d after the churn settled, %d at the late registration: no absorption happened", h.g.Stats().Cores, coresAtLate)
	}

	// A non-unit step fails eq (and only eq) mid-batch; a view and a
	// standalone predicate are unregistered with owed steps, and the
	// view's id is re-registered before the flush that charges them.
	x[0] += 3
	h.step(0, "x", x[0])
	h.step(1, "x", x[1])
	h.unregister("cnt")
	h.register("cnt", "acme", count("x", 100), nil)
	h.step(2, "x", x[2])
	h.step(0, "y", 0)
	h.unregister("conj")
	h.flush()
	round(0)
	for _, id := range []string{"late", "cnt"} {
		h.unregister(id)
	}
	h.flush()

	if err := h.g.Register(Registration{ID: "ge", Spec: sum("x", relsum.Ge, 1)}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if h.calls != len(h.regs) {
		t.Fatalf("resolver ran %d times for %d registrations", h.calls, len(h.regs))
	}
	var total int64
	for _, r := range h.regs {
		if r.resolved != 1 {
			t.Errorf("%s (%s): resolved %d times, want once", r.id, r.family, r.resolved)
		}
		if r.got != r.want {
			t.Errorf("%s (%s): charged %d steps, logical steps %d", r.id, r.family, r.got, r.want)
		}
		total += r.got
	}
	if st := h.g.Stats(); total != st.Steps {
		t.Errorf("charged %d steps in total, Stats().Steps = %d", total, st.Steps)
	}
	if h.latchd < 2 || h.failed != 1 || h.peak < 3 {
		t.Errorf("scenario not exercised: %d latches, %d failures, peak %d cores", h.latchd, h.failed, h.peak)
	}
}
