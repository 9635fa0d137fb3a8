package mux

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// --- Differential: shared cores vs standalone detectors ---

// refPred is the reference for one registration: a standalone detector
// built through detect.Entry.New (a private core), fed exactly the
// projected events the group routes to the predicate.
type refPred struct {
	id, tenant string
	routeVar   string
	det        detect.Detector
	seq        int64
	possibly   bool
	err        string
	active     bool
}

func (r *refPred) update() Update {
	return Update{ID: r.id, Tenant: r.tenant, Seq: r.seq, Possibly: r.possibly, Err: r.err}
}

// diffHarness drives one Group and the references side by side.
type diffHarness struct {
	t     *testing.T
	seed  int64
	procs int
	g     *Group
	refs  map[string]*refPred
	// last delivered value per variable and process: the registration
	// seed, tracked independently of the group.
	val, truth map[string][]int64
	vcs        [][]int64
	want       []Update // updates the references produced since the last check
	steps      int64    // reference detector steps taken: the group's logical Stats.Steps
}

func newDiffHarness(t *testing.T, seed int64, procs int) *diffHarness {
	h := &diffHarness{
		t: t, seed: seed, procs: procs, g: NewGroup(procs),
		refs: map[string]*refPred{}, val: map[string][]int64{}, truth: map[string][]int64{},
		vcs: make([][]int64, procs),
	}
	for p := range h.vcs {
		h.vcs[p] = make([]int64, procs)
	}
	h.g.OnDeliver(h.deliver)
	return h
}

// deliver mirrors the group's routing for the references. It runs
// before the group routes the event, so the variable's projector has
// not recorded it yet: the projected clock is what project is about to
// return.
func (h *diffHarness) deliver(ev detect.Event) {
	if _, ok := h.val[ev.Var]; !ok {
		h.val[ev.Var], h.truth[ev.Var] = make([]int64, h.procs), make([]int64, h.procs)
	}
	h.val[ev.Var][ev.Proc] = ev.Val
	h.truth[ev.Var][ev.Proc] = 0
	if ev.Truth {
		h.truth[ev.Var][ev.Proc] = 1
	}
	pj := h.g.projs[ev.Var]
	if pj == nil {
		return // no subscriber: nothing is stepped
	}
	pe := ev
	pe.VC = make([]int64, h.procs)
	for q, v := range ev.VC {
		pe.VC[q] = pj.base[q] + countLE(pj.idx[q], v)
	}
	pe.VC[ev.Proc]++
	for _, id := range h.ids() {
		r := h.refs[id]
		if !r.active || r.routeVar != ev.Var {
			continue
		}
		h.steps++
		if err := r.det.Step(pe); err != nil {
			r.err, r.active = err.Error(), false
			r.seq++
			h.want = append(h.want, r.update())
		}
	}
}

func (h *diffHarness) ids() []string {
	ids := make([]string, 0, len(h.refs))
	for id := range h.refs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (h *diffHarness) register(id string, spec pred.Spec, explicit []int64) {
	h.t.Helper()
	entry, _ := detect.Lookup(spec.Family, detect.ModalityPossibly)
	routeVar := spec.Var
	if spec.Family == pred.InFlight {
		routeVar = detect.InFlightVar
	}
	init := explicit
	if init == nil {
		switch entry.Caps.Payload {
		case detect.PayloadValue:
			init = append([]int64(nil), h.val[routeVar]...)
		case detect.PayloadTruth:
			init = append([]int64(nil), h.truth[routeVar]...)
		}
	}
	det, err := entry.New(spec, detect.Config{Procs: h.procs, Init: init})
	if err != nil {
		h.t.Fatalf("seed %d: reference %v: %v", h.seed, spec, err)
	}
	tenant := fmt.Sprintf("t%d", len(id)%3)
	if err := h.g.Register(Registration{ID: id, Tenant: tenant, Spec: spec, Init: explicit}); err != nil {
		h.t.Fatalf("seed %d: register %s %v: %v", h.seed, id, spec, err)
	}
	r := &refPred{id: id, tenant: tenant, routeVar: routeVar, det: det, active: true}
	h.refs[id] = r
	if det.Possibly() {
		r.possibly, r.active = true, false
		r.seq++
		h.want = append(h.want, r.update())
	}
	h.check("register " + id)
}

func (h *diffHarness) unregister(id string) {
	h.t.Helper()
	if err := h.g.Unregister(id); err != nil {
		h.t.Fatalf("seed %d: unregister %s: %v", h.seed, id, err)
	}
	delete(h.refs, id)
}

// flush flushes both sides and compares verdicts, states and ranges.
func (h *diffHarness) flush() {
	h.t.Helper()
	h.g.Flush()
	for _, id := range h.ids() {
		r := h.refs[id]
		if !r.active {
			continue
		}
		if r.det.Flush() {
			r.possibly, r.active = true, false
			r.seq++
			h.want = append(h.want, r.update())
		}
	}
	h.check("flush")
	var states []Update
	for _, id := range h.ids() {
		r := h.refs[id]
		states = append(states, r.update())
		det := h.g.Detector(id)
		if (det != nil) != r.active {
			h.t.Fatalf("seed %d: %s: group detector live=%v, reference active=%v", h.seed, id, det != nil, r.active)
		}
		if det == nil {
			continue
		}
		got, want := det.Snapshot(), r.det.Snapshot()
		if got.HasRange != want.HasRange || got.Min != want.Min || got.Max != want.Max {
			h.t.Fatalf("seed %d: %s: range [%d, %d], reference [%d, %d]", h.seed, id, got.Min, got.Max, want.Min, want.Max)
		}
	}
	if got := h.g.States(); fmt.Sprint(got) != fmt.Sprint(states) {
		h.t.Fatalf("seed %d: states\n got %v\nwant %v", h.seed, got, states)
	}
	if st := h.g.Stats(); st.Steps != h.steps {
		h.t.Fatalf("seed %d: logical steps %d, references took %d", h.seed, st.Steps, h.steps)
	}
}

// check compares the updates the group queued since the last check with
// the references'.
func (h *diffHarness) check(at string) {
	h.t.Helper()
	got := h.g.Drain()
	byID := func(us []Update) {
		sort.Slice(us, func(i, j int) bool { return us[i].ID < us[j].ID })
	}
	byID(got)
	byID(h.want)
	if fmt.Sprint(got) != fmt.Sprint(h.want) {
		h.t.Fatalf("seed %d: updates at %s\n got %v\nwant %v", h.seed, at, got, h.want)
	}
	h.want = h.want[:0]
}

// step emits the next event of process p on the variable, after
// optionally hearing from another process.
func (h *diffHarness) step(rng *rand.Rand, p int, v string, val int64, truth bool) {
	h.t.Helper()
	if rng.Intn(3) == 0 {
		q := rng.Intn(h.procs)
		for c := range h.vcs[p] {
			if h.vcs[q][c] > h.vcs[p][c] {
				h.vcs[p][c] = h.vcs[q][c]
			}
		}
	}
	h.vcs[p][p]++
	ev := detect.Event{Proc: p, VC: append([]int64(nil), h.vcs[p]...), Var: v, Val: val, Truth: truth}
	if err := h.g.Step(ev); err != nil {
		h.t.Fatalf("seed %d: step: %v", h.seed, err)
	}
	h.check("step")
}

var diffRelops = []relsum.Relop{relsum.Lt, relsum.Le, relsum.Eq, relsum.Ge, relsum.Gt, relsum.Ne}

func randomRangeSpec(rng *rand.Rand, procs int, vars []string) pred.Spec {
	v := vars[rng.Intn(len(vars))]
	rel := diffRelops[rng.Intn(len(diffRelops))]
	switch rng.Intn(6) {
	case 0:
		return pred.Spec{Family: pred.Count, Var: v, Rel: rel, K: int64(rng.Intn(procs + 2))}
	case 1:
		return pred.Spec{Family: pred.Xor, Var: v}
	case 2:
		return pred.Spec{Family: pred.Levels, Var: v, Levels: []int{rng.Intn(procs + 1), rng.Intn(procs + 1)}}
	case 3:
		return pred.Spec{Family: pred.InFlight, Rel: rel, K: int64(rng.Intn(7) - 1)}
	default:
		return pred.Spec{Family: pred.Sum, Var: v, Rel: rel, K: int64(rng.Intn(4*procs) - procs)}
	}
}

// TestSharedCoresMatchStandaloneDetectors is the exactness check of
// core sharing: one Group under random value, truth and occupancy
// streams, many relops, thresholds and level sets per variable, and
// random register / unregister / re-register points — same-cut
// registrations and explicit Init included — must emit, at every event
// and every flush, exactly the updates, states and per-predicate ranges
// of standalone detectors (each with a private core) fed the same
// projected events.
func TestSharedCoresMatchStandaloneDetectors(t *testing.T) {
	const procs = 3
	vars := []string{"x", "y"}
	seeds := int64(240)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newDiffHarness(t, seed, procs)
		next := 0
		live := []string{}
		add := func(explicit []int64) {
			spec := randomRangeSpec(rng, procs, vars)
			if spec.Family == pred.InFlight {
				explicit = nil
			} else if explicit != nil && spec.Family != pred.Sum {
				for i := range explicit {
					explicit[i] &= 1
				}
			}
			id := fmt.Sprintf("p%d", next)
			if rng.Intn(4) == 0 && len(live) > 0 {
				// Re-register a freed id now and then.
				id = fmt.Sprintf("p%d", rng.Intn(next+1))
				if h.refs[id] != nil {
					id = fmt.Sprintf("p%d", next)
				}
			}
			next++
			h.register(id, spec, explicit)
			live = append(live, id)
		}
		for i := 0; i < 6; i++ {
			add(nil)
		}
		cur := map[string][]int64{"x": make([]int64, procs), "y": make([]int64, procs)}
		for i := 0; i < 160; i++ {
			p := rng.Intn(procs)
			switch r := rng.Intn(10); {
			case r == 0:
				d := int64(1 - 2*rng.Intn(2))
				if rng.Intn(12) == 0 {
					d *= 2 // a non-unit occupancy change
				}
				h.step(rng, p, detect.InFlightVar, d, false)
			default:
				v := vars[rng.Intn(len(vars))]
				d := int64(rng.Intn(3) - 1)
				if rng.Intn(25) == 0 {
					d = int64(rng.Intn(7) - 3) // a jump: fails the == subscribers
				}
				cur[v][p] += d
				h.step(rng, p, v, cur[v][p], rng.Intn(2) == 0)
			}
			if rng.Intn(5) == 0 {
				h.flush()
			}
			switch r := rng.Intn(12); {
			case r == 0 && len(live) > 0:
				k := rng.Intn(len(live))
				if h.refs[live[k]] != nil {
					h.unregister(live[k])
				}
				live = append(live[:k], live[k+1:]...)
			case r == 1:
				add(nil)
				if rng.Intn(2) == 0 {
					add(nil) // same cut: shares the core just created
				}
			case r == 2:
				init := make([]int64, procs)
				for q := range init {
					init[q] = int64(rng.Intn(5) - 1)
				}
				add(init)
			}
		}
		h.flush()
		for _, id := range h.ids() {
			h.unregister(id)
		}
		if st := h.g.Stats(); st.Cores != 0 || st.Window != 0 || st.Active != 0 {
			t.Fatalf("seed %d: after the last unregister: %+v", seed, st)
		}
	}
}

// --- Unit-step failures on a shared core ---

// TestNonUnitStepFailsOnlyEqSubscribers: a step changing the sum by more
// than one fails exactly the == views of the variable's cores — at that
// event, with the text a standalone detector reports — and leaves the
// order views running on the same cores.
func TestNonUnitStepFailsOnlyEqSubscribers(t *testing.T) {
	g := NewGroup(2)
	reg := func(id string, rel relsum.Relop, k int64) {
		t.Helper()
		if err := g.Register(Registration{ID: id, Spec: pred.Spec{Family: pred.Sum, Var: "x", Rel: rel, K: k}}); err != nil {
			t.Fatal(err)
		}
	}
	step := func(p int, vc []int64, val int64) {
		t.Helper()
		if err := g.Step(detect.Event{Proc: p, VC: vc, Var: "x", Val: val}); err != nil {
			t.Fatal(err)
		}
	}
	reg("eq-old", relsum.Eq, 100)
	reg("ge-old", relsum.Ge, 100)
	step(0, []int64{1, 0}, 1)
	g.Flush()
	// A second cut: these two start on a younger core.
	reg("eq-new", relsum.Eq, 100)
	reg("ge-new", relsum.Ge, 100)
	if got := g.Stats().Cores; got != 2 {
		t.Fatalf("cores = %d, want 2 (two registration cuts)", got)
	}
	if ups := g.Drain(); len(ups) != 0 {
		t.Fatalf("unexpected updates %v", ups)
	}

	entry, _ := detect.Lookup(pred.Sum, detect.ModalityPossibly)
	ref, err := entry.New(pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: 100}, detect.Config{Procs: 2, Init: []int64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Process 1's first x-event jumps by 5: projected clock [1 1].
	want := ref.Step(detect.Event{Proc: 1, VC: []int64{1, 1}, Var: "x", Val: 5})
	if want == nil {
		t.Fatal("reference accepted a non-unit step")
	}
	step(1, []int64{1, 1}, 5)
	ups := g.Drain()
	sort.Slice(ups, func(i, j int) bool { return ups[i].ID < ups[j].ID })
	if len(ups) != 2 || ups[0].ID != "eq-new" || ups[1].ID != "eq-old" {
		t.Fatalf("updates at the jump: %v, want failures of eq-new and eq-old only", ups)
	}
	for _, u := range ups {
		if u.Err != want.Error() || u.Possibly || u.Seq != 1 {
			t.Fatalf("update %+v, want error %q", u, want)
		}
	}
	if st := g.Stats(); st.Active != 2 || st.Cores != 2 {
		t.Fatalf("after the jump: active=%d cores=%d, want 2/2 (the >= views run on)", st.Active, st.Cores)
	}
	step(0, []int64{2, 1}, 96)
	g.Flush()
	if !g.Possibly("ge-old") || !g.Possibly("ge-new") {
		t.Fatal(">= views should have latched at 96+5 after the == views failed")
	}
}

// --- Core count under churn ---

// TestCoreCountBoundedUnderChurn: re-registration mid-stream starts
// younger cores, and absorption returns the count to one per (variable,
// payload) once the old cores prune past the registration cuts; the
// last unregister frees everything.
func TestCoreCountBoundedUnderChurn(t *testing.T) {
	const procs = 4
	vars := []string{"a", "b", "c"}
	g := NewGroup(procs)
	id := 0
	reg := func(v string) string {
		t.Helper()
		id++
		name := fmt.Sprintf("p%d", id)
		specs := []pred.Spec{
			{Family: pred.Sum, Var: v, Rel: relsum.Ge, K: 1 << 40},
			{Family: pred.Count, Var: v, Rel: relsum.Ge, K: procs + 1},
			{Family: pred.InFlight, Rel: relsum.Ge, K: 1 << 40},
		}
		if err := g.Register(Registration{ID: name, Spec: specs[id%3]}); err != nil {
			t.Fatal(err)
		}
		return name
	}
	var live []string
	for _, v := range vars {
		for i := 0; i < 6; i++ {
			live = append(live, reg(v))
		}
	}
	bound := len(vars)*2 + 1 // value + truth per variable, one occupancy core
	if got := g.Stats().Cores; got > bound {
		t.Fatalf("cores = %d at the start, want <= %d", got, bound)
	}
	rng := rand.New(rand.NewSource(7))
	vcs := make([][]int64, procs)
	for p := range vcs {
		vcs[p] = make([]int64, procs)
	}
	round := func() {
		// Every process hears from its neighbour and touches every
		// variable, so the frontier keeps advancing.
		for p := 0; p < procs; p++ {
			q := (p + 1) % procs
			for _, v := range append(vars, detect.InFlightVar) {
				for c := range vcs[p] {
					if vcs[q][c] > vcs[p][c] {
						vcs[p][c] = vcs[q][c]
					}
				}
				vcs[p][p]++
				val := int64(rng.Intn(2))
				if v == detect.InFlightVar {
					val = int64(1 - 2*(p%2))
				}
				ev := detect.Event{Proc: p, VC: append([]int64(nil), vcs[p]...), Var: v, Val: val, Truth: val != 0}
				if err := g.Step(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	peak := 0
	for i := 0; i < 60; i++ {
		round()
		if i%2 == 0 {
			k := rng.Intn(len(live))
			if err := g.Unregister(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = reg(vars[rng.Intn(len(vars))])
		}
		g.Flush()
		if c := g.Stats().Cores; c > peak {
			peak = c
		}
	}
	if peak <= bound {
		t.Fatalf("churn never started a younger core (peak %d): the test is not exercising absorption", peak)
	}
	for i := 0; i < 4; i++ {
		round()
		g.Flush()
	}
	if got := g.Stats().Cores; got > bound {
		t.Fatalf("cores = %d after churn settled, want <= %d (vars x payloads)", got, bound)
	}
	st := g.Stats()
	if st.Active != len(live) || st.Steps == 0 {
		t.Fatalf("stats after churn: %+v", st)
	}
	for _, name := range live {
		if err := g.Unregister(name); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.Stats(); st.Cores != 0 || st.Window != 0 {
		t.Fatalf("after the last unregister: %+v", st)
	}
}

// --- Late registrant ---

// TestLateRegistrantCostIndependentOfStreamAge: a predicate registered
// after the variable has streamed for a long time starts a core at the
// registration cut. Its first flushes must cost what they cost on a
// young stream — not enumerate every projected index since the
// variable's projector was created.
func TestLateRegistrantCostIndependentOfStreamAge(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 200k events")
	}
	firstFlushes := func(age int) uint64 {
		const procs = 2
		g := NewGroup(procs)
		spec := pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge, K: 1 << 40}
		if err := g.Register(Registration{ID: "old", Spec: spec}); err != nil {
			t.Fatal(err)
		}
		vcs := [][]int64{{0, 0}, {0, 0}}
		emit := func(i int) {
			p := i % procs
			q := 1 - p
			if vcs[q][q] > vcs[p][q] {
				vcs[p][q] = vcs[q][q]
			}
			vcs[p][p]++
			ev := detect.Event{Proc: p, VC: append([]int64(nil), vcs[p]...), Var: "x", Val: int64(i % 2)}
			if err := g.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < age; i++ {
			emit(i)
			if i%64 == 63 {
				g.Flush()
			}
		}
		g.Flush()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := g.Register(Registration{ID: "late", Spec: spec}); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			for i := 0; i < 8; i++ {
				emit(age + f*8 + i)
			}
			g.Flush()
		}
		runtime.ReadMemStats(&after)
		if st := g.Stats(); st.Active != 2 {
			t.Fatalf("stats %+v", st)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	young, old := firstFlushes(1_000), firstFlushes(200_000)
	t.Logf("first three post-registration flushes allocate %d B after 1k events, %d B after 200k", young, old)
	if old > 2*young+4096 {
		t.Fatalf("first post-registration flushes allocate %d B after 200k events vs %d B after 1k: cost depends on stream age", old, young)
	}
}
