package mux

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// --- Delivery ---

func ev(proc int, vc ...int64) detect.Event {
	return detect.Event{Proc: proc, VC: vc}
}

func TestDeliveryReordersAndDedupes(t *testing.T) {
	var got []detect.Event
	d := NewDelivery(2, func(e detect.Event) { got = append(got, e) })

	// Process 1's second event depends on process 0's first; deliver the
	// dependent event first and let the holdback absorb it.
	must := func(e detect.Event) {
		t.Helper()
		if err := d.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	must(ev(1, 1, 2)) // needs (1,1) and (0,1)
	must(ev(1, 1, 2)) // duplicate of a held event: idempotent too
	if len(got) != 0 || d.Holdback() != 1 {
		t.Fatalf("premature delivery: %d delivered, %d held", len(got), d.Holdback())
	}
	must(ev(1, 0, 1))
	must(ev(1, 0, 1)) // duplicate: idempotent
	if len(got) != 1 {
		t.Fatalf("after (1,[0 1]): %d delivered, want 1", len(got))
	}
	must(ev(0, 1, 0)) // unblocks (1,[1 2])
	if len(got) != 3 || d.Holdback() != 0 {
		t.Fatalf("after drain: %d delivered (want 3), %d held (want 0)", len(got), d.Holdback())
	}
	wantOrder := [][2]int64{{1, 1}, {0, 1}, {1, 2}}
	for i, w := range wantOrder {
		if int64(got[i].Proc) != w[0] || got[i].VC[got[i].Proc] != w[1] {
			t.Fatalf("delivery %d = proc %d own %d, want proc %d own %d",
				i, got[i].Proc, got[i].VC[got[i].Proc], w[0], w[1])
		}
	}
	if d.Delivered() != 3 {
		t.Fatalf("Delivered=%d, want 3", d.Delivered())
	}
}

func TestDeliveryRejectsMalformed(t *testing.T) {
	d := NewDelivery(2, func(detect.Event) {})
	if err := d.Step(ev(5, 1, 0)); err == nil {
		t.Fatal("out-of-range process accepted")
	}
	d = NewDelivery(2, func(detect.Event) {})
	if err := d.Step(ev(0, 1)); err == nil {
		t.Fatal("short timestamp accepted")
	}
	if err := d.Step(ev(0, 1, 0)); err == nil {
		t.Fatal("sticky error not returned")
	}
}

// TestGroupCopiesLastClock: the group's per-process last clock is its own
// copy, so it does not keep the delivered event's memory alive.
func TestGroupCopiesLastClock(t *testing.T) {
	g := NewGroup(2)
	e := ev(0, 1, 0)
	if err := g.Step(e); err != nil {
		t.Fatal(err)
	}
	e.VC[0] = 9
	if got := g.lastVC[0]; got[0] != 1 || &got[0] == &e.VC[0] {
		t.Errorf("last clock of process 0 = %v, sharing the event's memory", got)
	}
}

// --- Projector ---

func TestProjectorClocks(t *testing.T) {
	// Two processes; variable v has events at local indices 1,3 of p0 and
	// 2 of p1 (other indices belong to other variables).
	pj := newProjector(2)
	if got := pj.project(0, []int64{1, 0}); got[0] != 1 || got[1] != 0 {
		t.Fatalf("first v-event of p0: %v", got)
	}
	// p1's v-event at local index 2 has seen p0's index 2 (so both
	// v-events ≤ 2 of p0... only index 1 qualifies).
	if got := pj.project(1, []int64{2, 2}); got[0] != 1 || got[1] != 1 {
		t.Fatalf("v-event of p1: %v", got)
	}
	if got := pj.project(0, []int64{3, 0}); got[0] != 2 || got[1] != 0 {
		t.Fatalf("second v-event of p0: %v", got)
	}
	// Prune below the floor [1,0]: p0's index-1 entry folds into base.
	pj.prune([]int64{1, 0})
	cut := make([]int64, 2)
	if pj.cut(cut); len(pj.idx[0])+len(pj.idx[1]) != 2 || cut[0] != 2 || cut[1] != 1 {
		t.Fatalf("after prune: retained %v, cut %v; want 2 retained, cut [2 1]", pj.idx, cut)
	}
	// Later event still projects correctly via the base offset.
	if got := pj.project(1, []int64{3, 3}); got[0] != 2 || got[1] != 2 {
		t.Fatalf("post-prune projection: %v", got)
	}
}

// --- Randomized agreement with the offline oracle ---

// tag records what one event of the generated computation carries on the
// multiplexed stream.
type tag struct {
	varName string
	val     int64 // variable value (bool vars) or occupancy delta
}

// randomComputation builds a multi-variable computation with messages:
// internal events flip random 0/1 variables, message pairs move channel
// occupancy. It returns the sealed computation (with carried-forward
// variable tables, so offline oracles see every variable at every event)
// and the multiplexed event stream in causal order.
func randomComputation(rng *rand.Rand, procs, rounds int, vars []string) (*computation.Computation, []detect.Event) {
	c := computation.New()
	for p := 0; p < procs; p++ {
		c.AddProcess()
	}
	tags := make(map[computation.EventID]tag)
	for i := 0; i < rounds; i++ {
		p := computation.ProcID(rng.Intn(procs))
		if rng.Float64() < 0.2 {
			q := computation.ProcID(rng.Intn(procs))
			for q == p {
				q = computation.ProcID(rng.Intn(procs))
			}
			send := c.AddInternal(p)
			recv := c.AddInternal(q)
			if err := c.AddMessage(send, recv); err != nil {
				panic(err)
			}
			tags[send] = tag{varName: detect.InFlightVar, val: 1}
			tags[recv] = tag{varName: detect.InFlightVar, val: -1}
			continue
		}
		id := c.AddInternal(p)
		tags[id] = tag{varName: vars[rng.Intn(len(vars))], val: int64(rng.Intn(2))}
	}
	// Carried-forward variable tables: every event carries every
	// variable's current value on its process (initials are zero).
	for p := 0; p < procs; p++ {
		cur := make(map[string]int64, len(vars))
		for _, id := range c.ProcEvents(computation.ProcID(p)) {
			if tg, ok := tags[id]; ok && tg.varName != detect.InFlightVar {
				cur[tg.varName] = tg.val
			}
			for _, v := range vars {
				c.SetVar(v, id, cur[v])
			}
		}
	}
	if err := c.Seal(); err != nil {
		panic(err)
	}
	var stream []detect.Event
	for _, id := range c.Topo() {
		e := c.Event(id)
		if e.IsInitial() {
			continue
		}
		clk := c.Clock(id)
		vc := make([]int64, len(clk))
		for q, v := range clk {
			if v >= 1 {
				vc[q] = int64(v) - 1
			}
		}
		out := detect.Event{Proc: int(e.Proc), VC: vc}
		if tg, ok := tags[id]; ok {
			out.Var = tg.varName
			out.Val = tg.val
			out.Truth = tg.varName != detect.InFlightVar && tg.val != 0
		}
		stream = append(stream, out)
	}
	return c, stream
}

// TestMuxAgreesWithOracle is the soundness test of the relevance index:
// for every incremental family, a var-routed predicate — stepped only on
// its variable's events, under projected timestamps — must latch exactly
// the verdict the offline batch algorithm computes on the full
// computation (which is also what stepping the detector on every event
// yields). Failures here mean the projection leaks or drops causal
// constraints.
func TestMuxAgreesWithOracle(t *testing.T) {
	specs := []pred.Spec{
		{Family: pred.Conjunctive, Var: "v0"},
		{Family: pred.Sum, Var: "v0", Rel: relsum.Ge, K: 3},
		{Family: pred.Sum, Var: "v1", Rel: relsum.Eq, K: 2},
		{Family: pred.Count, Var: "v1", Rel: relsum.Ge, K: 2},
		{Family: pred.Xor, Var: "v2"},
		{Family: pred.Levels, Var: "v2", Levels: []int{3}},
		{Family: pred.InFlight, Rel: relsum.Ge, K: 2},
		{Family: pred.InFlight, Rel: relsum.Eq, K: 0},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, stream := randomComputation(rng, 4, 120, []string{"v0", "v1", "v2"})
		g := NewGroup(4)
		for i, s := range specs {
			id := fmt.Sprintf("p%d", i)
			if err := g.Register(Registration{ID: id, Spec: s}); err != nil {
				t.Fatalf("seed %d: register %v: %v", seed, s, err)
			}
		}
		for i, e := range stream {
			if err := g.Step(e); err != nil {
				t.Fatalf("seed %d: step %d: %v", seed, i, err)
			}
			if i%16 == 15 {
				g.Flush()
			}
		}
		g.Flush()
		if g.Holdback() != 0 {
			t.Fatalf("seed %d: %d events stuck in holdback", seed, g.Holdback())
		}
		st := g.Stats()
		if st.Skipped == 0 {
			t.Errorf("seed %d: relevance index skipped nothing over %d deliveries", seed, st.Delivered)
		}
		for i, s := range specs {
			id := fmt.Sprintf("p%d", i)
			res, err := detect.Batch(c, s, detect.ModalityPossibly, detect.Options{}, nil)
			if err != nil {
				t.Fatalf("seed %d: oracle %v: %v", seed, s, err)
			}
			if got := g.Possibly(id); got != res.Holds {
				t.Errorf("seed %d: %v: mux possibly=%v, oracle=%v (steps=%d skipped=%d)",
					seed, s, got, res.Holds, st.Steps, st.Skipped)
			}
		}
	}
}

// TestConjunctiveInvolvedRouting checks the process filter from the
// relevance hint: events of non-involved processes are skipped, and the
// verdict matches the conjunction over the involved processes alone.
func TestConjunctiveInvolvedRouting(t *testing.T) {
	g := NewGroup(3)
	err := g.Register(Registration{
		ID:       "conj",
		Spec:     pred.Spec{Family: pred.Conjunctive, Var: "x"},
		Involved: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(e detect.Event) {
		t.Helper()
		if err := g.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	// Process 2 is never true but also not involved.
	step(detect.Event{Proc: 2, VC: []int64{0, 0, 1}, Var: "x", Truth: false})
	// Concurrent true events on the involved processes.
	step(detect.Event{Proc: 0, VC: []int64{1, 0, 0}, Var: "x", Truth: true})
	step(detect.Event{Proc: 1, VC: []int64{0, 1, 0}, Var: "x", Truth: true})
	if !g.Flush() {
		t.Fatal("conjunction over involved processes should latch")
	}
	st := g.Stats()
	if st.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (process 2's event filtered)", st.Steps)
	}
}

// TestMidStreamRegistration checks registration-cut semantics: a
// predicate registered mid-stream is seeded with the variable's last
// delivered values and observes only the suffix.
func TestMidStreamRegistration(t *testing.T) {
	g := NewGroup(2)
	step := func(e detect.Event) {
		t.Helper()
		if err := g.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	step(detect.Event{Proc: 0, VC: []int64{1, 0}, Var: "y", Val: 5})
	step(detect.Event{Proc: 1, VC: []int64{0, 1}, Var: "y", Val: 5})
	g.Flush()

	// Seeded baseline 5+5=10 satisfies ≥10 at the registration cut.
	if err := g.Register(Registration{ID: "ge10", Tenant: "a",
		Spec: pred.Spec{Family: pred.Sum, Var: "y", Rel: relsum.Ge, K: 10}}); err != nil {
		t.Fatal(err)
	}
	if !g.Possibly("ge10") {
		t.Fatal("ge10 should latch from the seeded registration cut")
	}
	// ≥12 needs the suffix.
	if err := g.Register(Registration{ID: "ge12", Tenant: "a",
		Spec: pred.Spec{Family: pred.Sum, Var: "y", Rel: relsum.Ge, K: 12}}); err != nil {
		t.Fatal(err)
	}
	if g.Possibly("ge12") {
		t.Fatal("ge12 latched prematurely")
	}
	step(detect.Event{Proc: 0, VC: []int64{2, 0}, Var: "y", Val: 7})
	g.Flush()
	if !g.Possibly("ge12") {
		t.Fatal("ge12 should latch after y rises to 7+5")
	}
	ups := g.Drain()
	if len(ups) != 2 {
		t.Fatalf("drained %d updates, want 2 (ge10 at registration, ge12 after flush)", len(ups))
	}
	for _, u := range ups {
		if u.Seq != 1 || !u.Possibly || u.Tenant != "a" {
			t.Fatalf("unexpected update %+v", u)
		}
	}
	if g.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
}

// TestMidStreamConjunctionOnTrueVariable: a conjunction registered
// mid-stream is seeded with the variable's truth at the registration
// cut, and its checker takes every involved process as false there. So
// a registration over a variable some involved process currently holds
// true is refused (it would never see that truth and could miss the
// satisfying cut), while one over an untouched variable, or over a
// variable true only outside its involved set, is accepted.
func TestMidStreamConjunctionOnTrueVariable(t *testing.T) {
	g := NewGroup(2)
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1, 0}, Var: "x", Val: 1, Truth: true}); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	all := func(v string) pred.Spec { return pred.Spec{Family: pred.Conjunctive, Var: v} }

	err := g.Register(Registration{ID: "x", Spec: all("x")})
	if err == nil || !strings.Contains(err.Error(), "process 0") {
		t.Fatalf("all(x) with x true on process 0: got %v, want an error naming process 0", err)
	}
	if g.Possibly("x") || g.Stats().Registered != 0 {
		t.Fatalf("the refused registration left a predicate behind: %+v", g.Stats())
	}
	if err := g.Register(Registration{ID: "x1", Spec: all("x"), Involved: []int{1}}); err != nil {
		t.Fatalf("all(x) over process 1 only: %v", err)
	}
	if err := g.Register(Registration{ID: "y", Spec: all("y")}); err != nil {
		t.Fatalf("all(y) on an untouched variable: %v", err)
	}
	for _, e := range []detect.Event{
		{Proc: 1, VC: []int64{1, 1}, Var: "y", Val: 1, Truth: true},
		{Proc: 0, VC: []int64{2, 1}, Var: "y", Val: 1, Truth: true},
	} {
		if err := g.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	if !g.Possibly("y") {
		t.Fatal("all(y) should latch once both processes set y")
	}
}

// TestLatchStopsStepping checks the latch-stop optimization: a latched
// var-routed predicate is deactivated, its detector freed, and further
// events of its variable cost nothing.
func TestLatchStopsStepping(t *testing.T) {
	g := NewGroup(1)
	if err := g.Register(Registration{ID: "s",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1}, Var: "x", Val: 1}); err != nil {
		t.Fatal(err)
	}
	if !g.Flush() {
		t.Fatal("should latch")
	}
	if st := g.Stats(); st.Active != 0 || st.Registered != 1 {
		t.Fatalf("active=%d registered=%d, want 0/1", st.Active, st.Registered)
	}
	if g.Detector("s") != nil {
		t.Fatal("latched routed detector should be freed")
	}
	before := g.Stats().Steps
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{2}, Var: "x", Val: 2}); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	if got := g.Stats().Steps; got != before {
		t.Fatalf("latched predicate was stepped: steps %d -> %d", before, got)
	}
	states := g.States()
	if len(states) != 1 || !states[0].Possibly {
		t.Fatalf("States() = %+v", states)
	}
}

// TestUnregisterAndTenants checks registration bookkeeping: the tenant
// each record holds (the engine returns an unregistered predicate's slot
// to it) and the per-tenant counts of the close-time fan-out.
func TestUnregisterAndTenants(t *testing.T) {
	g := NewGroup(1)
	tenants := func() map[string]int {
		out := map[string]int{}
		for _, u := range g.States() {
			out[u.Tenant]++
		}
		return out
	}
	reg := func(id, tenant string) {
		t.Helper()
		if err := g.Register(Registration{ID: id, Tenant: tenant,
			Spec: pred.Spec{Family: pred.Xor, Var: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	reg("a1", "a")
	reg("a2", "a")
	reg("b1", "b")
	reg("d1", "")
	if err := g.Register(Registration{ID: "a1", Spec: pred.Spec{Family: pred.Xor, Var: "x"}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if tc := tenants(); tc["a"] != 2 || tc["b"] != 1 || tc["default"] != 1 {
		t.Fatalf("tenant counts: %v", tenants())
	}
	if g.Tenant("a2") != "a" || g.Tenant("d1") != "default" || g.Tenant("nope") != "" {
		t.Fatalf("record tenants: a2=%q d1=%q nope=%q", g.Tenant("a2"), g.Tenant("d1"), g.Tenant("nope"))
	}
	if err := g.Unregister("a2"); err != nil {
		t.Fatal(err)
	}
	if err := g.Unregister("a2"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if g.Tenant("a2") != "" {
		t.Fatalf("unregistered a2 still held by %q", g.Tenant("a2"))
	}
	if st := g.Stats(); tenants()["a"] != 1 || st.Registered != 3 || st.Active != 3 {
		t.Fatalf("after unregister: tenants=%v registered=%d active=%d", tenants(), st.Registered, st.Active)
	}
	if err := g.Unregister("b1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tenants()["b"]; ok {
		t.Fatalf("tenant b should be gone: %v", tenants())
	}
	// The id is free again.
	reg("a2", "a")
	if tenants()["a"] != 2 {
		t.Fatalf("re-register: %v", tenants())
	}
}

// TestPerPredicateFailureIsolated checks that one predicate's step
// failure (a unit-step violation) surfaces in its update stream without
// killing the group or its other predicates.
func TestPerPredicateFailureIsolated(t *testing.T) {
	g := NewGroup(1)
	if err := g.Register(Registration{ID: "eq",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Registration{ID: "ge",
		Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 5}}); err != nil {
		t.Fatal(err)
	}
	// A jump of 5 violates the Eq detector's unit-step requirement but is
	// fine for Ge.
	if err := g.Step(detect.Event{Proc: 0, VC: []int64{1}, Var: "x", Val: 5}); err != nil {
		t.Fatalf("group should survive a per-predicate failure: %v", err)
	}
	g.Flush()
	if err := g.PredicateErr("eq"); err == nil {
		t.Fatal("eq should carry the unit-step error")
	}
	if !g.Possibly("ge") {
		t.Fatal("ge should have latched despite eq's failure")
	}
	var failed, latched bool
	for _, u := range g.Drain() {
		switch u.ID {
		case "eq":
			failed = u.Err != ""
		case "ge":
			latched = u.Possibly && u.Err == ""
		}
	}
	if !failed || !latched {
		t.Fatalf("updates missing: failed=%v latched=%v", failed, latched)
	}
	if active := g.Stats().Active; active != 0 {
		t.Fatalf("active = %d, want 0 (eq failed, ge latched)", active)
	}
}

// TestRejectsNonIncremental checks registration validation.
func TestRejectsNonIncremental(t *testing.T) {
	g := NewGroup(2)
	err := g.Register(Registration{ID: "cnf", Spec: pred.Spec{
		Family:  pred.CNF,
		Var:     "x",
		Clauses: []pred.Clause{{{Proc: 0}}},
	}})
	if err == nil {
		t.Fatal("cnf (no incremental detector) accepted")
	}
	if err := g.Register(Registration{ID: ""}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := g.Register(Registration{ID: "bad", Spec: pred.Spec{Family: pred.Sum}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// --- Slice (accepted and ignored) ---

// The three tests below keep the names they had when a group ran shared
// per-variable slicers. A group keeps no slicers now: Registration.Slice
// is accepted and ignored, and the verdict comes from the registration's
// own detector. Each test pins what is left of its old contract.

func conjReg(id, v string) Registration {
	return Registration{ID: id, Spec: pred.Spec{Family: pred.Conjunctive, Var: v}, Slice: true}
}

// slicedTwins registers regs on one group as given and on a second group
// with Slice cleared, steps both through evs (flushing every flushEvery
// events and at the end), and fails unless the two fan out the same
// updates and hold the same detector windows.
func slicedTwins(t *testing.T, procs int, regs []Registration, evs []detect.Event, flushEvery int) (sliced, plain *Group) {
	t.Helper()
	sliced, plain = NewGroup(procs), NewGroup(procs)
	for _, r := range regs {
		if err := sliced.Register(r); err != nil {
			t.Fatalf("sliced register %q: %v", r.ID, err)
		}
		r.Slice = false
		if err := plain.Register(r); err != nil {
			t.Fatalf("plain register %q: %v", r.ID, err)
		}
	}
	var gotS, gotP []Update
	for i, e := range evs {
		for _, g := range []*Group{sliced, plain} {
			if err := g.Step(e); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if (i+1)%flushEvery == 0 {
			sliced.Flush()
			plain.Flush()
			gotS = append(gotS, sliced.Drain()...)
			gotP = append(gotP, plain.Drain()...)
		}
	}
	sliced.Flush()
	plain.Flush()
	gotS = append(gotS, sliced.Drain()...)
	gotP = append(gotP, plain.Drain()...)
	if !slices.Equal(gotS, gotP) {
		t.Fatalf("sliced updates %+v, unsliced %+v", gotS, gotP)
	}
	if ws, wp := sliced.Window(), plain.Window(); ws != wp {
		t.Fatalf("sliced window %d, unsliced %d", ws, wp)
	}
	return sliced, plain
}

// TestSlicerSharedAcrossPredicates: two sliced predicates on one
// variable each latch the satisfying cut from their own detector, exactly
// as their unsliced twins do, and detaching one leaves the other intact.
func TestSlicerSharedAcrossPredicates(t *testing.T) {
	evs := []detect.Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Truth: true},
	}
	g, _ := slicedTwins(t, 2, []Registration{conjReg("a", "x"), conjReg("b", "x")}, evs, 1)
	if !g.Possibly("a") || !g.Possibly("b") {
		t.Fatalf("a sharer missed the satisfying cut: a=%v b=%v", g.Possibly("a"), g.Possibly("b"))
	}
	if err := g.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Registered; got != 1 || !g.Possibly("b") {
		t.Fatalf("after detaching a: registered=%d, b possibly=%v; want 1, true", got, g.Possibly("b"))
	}
	if err := g.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Registered; got != 0 {
		t.Fatalf("registered = %d after the last sharer detached, want 0", got)
	}
}

// TestSlicerRejectsNonRegular: a non-regular family still cannot be
// sliced, and the kernel's slice route says so via the sentinel. The
// group no longer refuses a sliced non-regular registration: it admits
// it and verdicts exactly as the unsliced one and the batch oracle do.
func TestSlicerRejectsNonRegular(t *testing.T) {
	spec := pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 1}
	c, stream := randomComputation(rand.New(rand.NewSource(1)), 3, 60, []string{"x"})
	_, err := detect.Slice(c, spec, detect.ModalityPossibly, detect.Options{}, nil)
	if err == nil {
		t.Fatal("sum sliced by the kernel")
	}
	if !errors.Is(err, slicing.ErrNotRegular) {
		t.Fatalf("error %v does not unwrap to ErrNotRegular", err)
	}
	g, _ := slicedTwins(t, 3, []Registration{{ID: "s", Spec: spec, Slice: true}}, stream, 8)
	res, err := detect.Batch(c, spec, detect.ModalityPossibly, detect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Possibly("s"); got != res.Holds {
		t.Fatalf("sliced sum possibly=%v, oracle=%v", got, res.Holds)
	}
}

// TestSlicerSealCompactsEverything: a sliced registration pins nothing
// beyond what its unsliced twin holds — no events stay held back, the
// detector windows agree — and the delivery ledger accounts every
// appended event exactly once.
func TestSlicerSealCompactsEverything(t *testing.T) {
	var evs []detect.Event
	for i := int64(1); i <= 6; i++ {
		evs = append(evs,
			detect.Event{Proc: 0, VC: []int64{i, 0}, Var: "x", Truth: i%2 == 0},
			detect.Event{Proc: 1, VC: []int64{0, i}, Var: "x", Truth: i%2 == 1})
	}
	g, plain := slicedTwins(t, 2, []Registration{conjReg("a", "x")}, evs, 2)
	if h := g.Holdback(); h != 0 {
		t.Fatalf("%d events held back after the stream, want 0", h)
	}
	if got, want := g.Delivered(), int64(len(evs)); got != want {
		t.Fatalf("delivery ledger %d, want every appended event (%d)", got, want)
	}
	if gs, ps := g.Stats(), plain.Stats(); gs != ps {
		t.Fatalf("sliced stats %+v, unsliced %+v", gs, ps)
	}
	if !g.Possibly("a") {
		t.Fatal("satisfying cut missed")
	}
}
