package mux

import (
	"fmt"
	"slices"
	"sort"

	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Registration attaches one predicate to a Group.
type Registration struct {
	// ID names the predicate within the group (unique, non-empty).
	ID string
	// Tenant is the owning tenant; empty means "default".
	Tenant string
	// Spec is the predicate.
	Spec pred.Spec
	// Involved restricts a conjunctive predicate to the listed
	// processes; nil means all. Other families refuse one.
	Involved []int
	// Init gives per-process initial variable values. nil means "seed
	// from the registration cut": the group fills in the last delivered
	// value of the predicate's variable on each process, so the
	// detector observes the computation's suffix with the correct
	// starting state. A conjunction refuses a true initial state on an
	// involved process, seeded or given: its checker takes them false.
	Init []int64
	// Retain is accepted and ignored: no detector records per-event
	// state for the close, and a retaining session keeps its trace
	// itself. It stays only because bench/ still sets it; ROADMAP's
	// black-box bench/ item deletes it.
	Retain bool
	// AllEvents steps the detector on every delivered event with the
	// raw timestamps — the single-predicate session mode. The
	// registration bypasses the relevance index, is never latch-stopped
	// and keeps exact pre-multiplexer session semantics.
	AllEvents bool
	// Slice is accepted and ignored: a group keeps no slicers, and the
	// verdict always comes from the registration's own detector. It
	// stays only because bench/ still sets it; ROADMAP's black-box
	// bench/ item deletes it.
	Slice bool
}

// Update is one predicate verdict change, fanned out by Drain, or its
// close-time state, reported by States. Seq numbers the updates of one
// predicate from 1 so consumers can spot reordering or loss downstream.
type Update struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Seq      int64  `json:"seq"`
	Possibly bool   `json:"possibly"`
	// Set by States only, for predicates registered at open (see States).
	Definitely      bool   `json:"definitely,omitempty"`
	DefinitelyKnown bool   `json:"definitely_known,omitempty"`
	Err             string `json:"error,omitempty"`
}

// DetectorError is an all-events predicate's detector failure, which
// Group.Step returns (sticky) after the delivery's own errors.
type DetectorError struct{ Err error }

func (e *DetectorError) Error() string { return e.Err.Error() }
func (e *DetectorError) Unwrap() error { return e.Err }

// Stats is a point-in-time view of a group.
type Stats struct {
	Registered int   // predicates registered (including latched/failed)
	Active     int   // predicates still being stepped
	Steps      int64 // detector steps performed, one per stepped predicate (logical)
	Skipped    int64 // detector steps avoided by the relevance index
	Delivered  int64 // events causally delivered
	Holdback   int   // events buffered awaiting causal delivery
	Window     int   // summed per-predicate detector windows (logical)

	// Physical work behind the logical per-predicate counters above:
	// range-based predicates of one variable share a core (core.go).
	Cores       int   // live shared range cores
	CoreFlushes int64 // core flushes performed
	Closures    int64 // closure problems the core flushes solved: 0–2 each, only the sides some view can still be moved by
}

// predicate is one registered detector and its routing state.
type predicate struct {
	id, tenant string
	spec       pred.Spec
	det        detect.Detector
	view       *detect.RangeView // non-nil: det is this view over the shared core below
	core       *groupCore
	routeVar   string // "" for all-events registrations
	procSet    []bool // nil = all processes
	all        bool
	atOpen     bool // registered before the first delivered event: its runs start at the initial cut

	seq      int64
	possibly bool
	err      error
	active   bool // still stepped; false once latched (routed), failed, or unregistered
	dirty    bool // on the group's dirty list: stepped, or retired with owed steps, since the last flush
	window   int  // own detector's window as of the last flush (views: see groupCore.window)

	owed int64             // detector steps not yet charged to cost
	seen int64             // views: the core's step count already charged to this predicate
	cost func(steps int64) // the predicate's cost sink (nil: no resolver installed)
}

// varState is the delivered record of one variable: its last values
// seed detectors registered mid-stream, and with the rest the close
// reads the final cut of an at-open predicate that released its
// detector (endpoint).
type varState struct {
	val   []int64 // last Event.Val
	truth []int64 // last Event.Truth as 0/1
	seen  []bool  // the process delivered an event of the variable
	first []int64 // the process's first Event.Val
	delta int64   // running sum of Event.Val: a delta (inflight) variable's occupancy
	grade [2]int8 // worst stepGrade read as a value (between a process's events) and as a delta
}

// Group multiplexes many predicate detectors over one computation's
// event stream. Events are causally ordered once; each delivered event
// is routed through the relevance index and stepped only into the
// detectors whose variable (and process set) it touches, under
// projected timestamps (see projector); the range-based predicates of a
// variable are views over one shared core (see core.go), so the event
// steps that core once however many of them subscribe. A Group is
// confined to one goroutine.
type Group struct {
	procs     int
	delivery  *Delivery
	onDeliver func(detect.Event)
	lastVC    [][]int64 // raw timestamp of the last delivered event per process

	preds  map[string]*predicate
	err    error // an all-events predicate's *DetectorError, returned by Step
	onCost func(tenant, family, id string) func(steps int64)
	byVar  map[string][]*predicate // active var-routed predicates with a detector of their own
	all    []*predicate            // active all-events predicates
	cores  map[string][]*groupCore // shared range cores per variable, oldest first (core.go)
	projs  map[string]*projector   // one per subscribed variable
	vars   map[string]*varState
	dirty  []*predicate
	queued []Update

	dirtyCores  []*groupCore // cores stepped since the last flush
	ncores      int
	coreFlushes int64
	closures    int64

	active    int
	latched   int // registered predicates whose verdict has latched
	steps     int64
	skipped   int64
	windowSum int
}

// NewGroup builds an empty group over procs processes.
func NewGroup(procs int) *Group {
	g := &Group{
		procs:  procs,
		lastVC: make([][]int64, procs),
		preds:  make(map[string]*predicate),
		byVar:  make(map[string][]*predicate),
		cores:  make(map[string][]*groupCore),
		projs:  make(map[string]*projector),
		vars:   make(map[string]*varState),
	}
	g.delivery = NewDelivery(procs, g.deliver)
	return g
}

// Register resolves the registration's incremental detector from the
// detector registry and attaches it. A predicate registered mid-stream
// observes the computation from the registration cut onward: its
// variable is seeded with the last delivered values (unless Init is
// given) and its clocks count only subsequent events of the variable.
func (g *Group) Register(r Registration) error {
	if r.ID == "" {
		return fmt.Errorf("mux: registration needs an id")
	}
	if _, dup := g.preds[r.ID]; dup {
		return fmt.Errorf("mux: predicate %q already registered", r.ID)
	}
	if err := r.Spec.Validate(g.procs); err != nil {
		return err
	}
	// Only a conjunction reads an involved set; anywhere else it would
	// be dropped and the verdict would cover every process.
	if len(r.Involved) > 0 && r.Spec.Family != pred.Conjunctive {
		return fmt.Errorf("mux: involved processes apply only to conjunctions, not %v", r.Spec.Family)
	}
	entry, ok := detect.Lookup(r.Spec.Family, detect.ModalityPossibly)
	if !ok || !entry.Caps.Incremental {
		return fmt.Errorf("mux: predicate family %v has no incremental detector", r.Spec.Family)
	}
	routeVar := ""
	if !r.AllEvents {
		routeVar = r.Spec.Var
		if r.Spec.Family == pred.InFlight {
			routeVar = detect.InFlightVar
		}
	}
	// A routed predicate of a range-based family is a view over the
	// shared core of its variable; everything else owns its detector.
	var det detect.Detector
	var view *detect.RangeView
	var core *groupCore
	var err error
	if entry.View != nil && routeVar != "" {
		if core, err = g.coreFor(routeVar, entry.Caps.Payload, r.Init); err == nil {
			view = entry.View(r.Spec, core.core)
			det = view
		}
	} else {
		init := r.Init
		if init == nil && routeVar != "" && entry.Caps.Payload == detect.PayloadTruth {
			init = g.seedInit(routeVar, detect.PayloadTruth) // the state at the registration cut
		}
		det, err = entry.New(r.Spec, detect.Config{
			Procs:    g.procs,
			Involved: r.Involved,
			Init:     init,
		})
	}
	if err != nil {
		return fmt.Errorf("mux: %w", err)
	}
	tenant := r.Tenant
	if tenant == "" {
		tenant = "default"
	}
	p := &predicate{
		id:       r.ID,
		tenant:   tenant,
		spec:     r.Spec,
		det:      det,
		view:     view,
		core:     core,
		routeVar: routeVar,
		all:      r.AllEvents,
		atOpen:   g.delivery.Delivered() == 0,
		active:   true,
	}
	// The relevance hint narrows the process set (conjunctive predicates
	// over a subset of processes); the variable is taken from the spec.
	if rel := detect.TouchesOf(det); rel.Procs != nil && !p.all {
		p.procSet = make([]bool, g.procs)
		for _, q := range rel.Procs {
			if q >= 0 && q < g.procs {
				p.procSet[q] = true
			}
		}
	}
	g.preds[r.ID] = p
	g.resolveCost(p)
	g.active++
	switch {
	case p.all:
		g.all = append(g.all, p)
	case view != nil:
		core.views = append(core.views, p)
		core.reach = core.reach.Union(view.Reach())
		p.seen = core.steps
		g.windowSum += core.window
	default:
		g.byVar[routeVar] = append(g.byVar[routeVar], p)
	}
	if !p.all && g.projs[routeVar] == nil {
		g.projs[routeVar] = newProjector(g.procs)
	}
	// A satisfied initial cut latches immediately.
	if det.Possibly() {
		g.latch(p)
		if view != nil {
			g.leave(p)
		}
	}
	return nil
}

// seedInit returns the last delivered values of the variable — the
// initial values of a core started mid-stream (nil: all zero).
func (g *Group) seedInit(v string, payload detect.Payload) []int64 {
	st := g.vars[v]
	if st == nil {
		return nil
	}
	switch payload {
	case detect.PayloadValue:
		return st.val
	case detect.PayloadTruth:
		return st.truth
	default: // PayloadDelta counts from zero at the registration cut
		return nil
	}
}

// Unregister detaches a predicate. Its detector state is freed; no
// further updates are emitted for it.
func (g *Group) Unregister(id string) error {
	p, ok := g.preds[id]
	if !ok {
		return fmt.Errorf("mux: predicate %q is not registered", id)
	}
	if p.active {
		g.retire(p)
		if p.core != nil {
			g.leave(p)
		}
	}
	if p.possibly {
		g.latched--
	}
	delete(g.preds, id)
	return nil
}

// retire takes an active predicate out of the stepping indexes and
// releases its window and detector state. The indexes only ever shrink
// at or after the position being retired, so deliver's loops walk them
// from the end; a view is taken off its core's list by the caller
// (leave, or the sift it is running under).
func (g *Group) retire(p *predicate) {
	p.active = false
	g.active--
	switch {
	case p.view != nil:
		p.settle()
		g.windowSum -= p.core.window
		p.det = nil
		p.view.Release() // the close's endpoint rule needs the view, not its core
	case p.all:
		g.all = removePred(g.all, p)
	default:
		g.byVar[p.routeVar] = removePred(g.byVar[p.routeVar], p)
		g.unsubscribed(p.routeVar)
		p.det = nil
	}
	g.windowSum -= p.window
	p.window = 0
	// The final steps are still reported at the next flush.
	if p.owed > 0 && !p.dirty {
		p.dirty = true
		g.dirty = append(g.dirty, p)
	}
}

// unsubscribed drops a variable's routing state once its last
// subscriber is gone; the projector is re-created (at the new cut) on
// re-subscription.
func (g *Group) unsubscribed(v string) {
	if len(g.byVar[v]) == 0 && len(g.cores[v]) == 0 {
		delete(g.byVar, v)
		delete(g.cores, v)
		delete(g.projs, v)
	}
}

func removePred(list []*predicate, p *predicate) []*predicate {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// latch records a true Possibly verdict: the update is queued, and a
// var-routed predicate stops being stepped (the verdict is monotone, so
// further events cannot change it — this is what keeps the per-event
// cost proportional to the event's subscribers, not to every predicate
// ever registered). All-events predicates keep stepping, so their
// detector decides the close-time endpoint rule itself (States).
func (g *Group) latch(p *predicate) {
	p.possibly = true
	g.latched++
	p.seq++
	g.queued = append(g.queued, Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: true})
	if !p.all {
		g.retire(p)
	}
}

// failPred records a per-predicate step failure. The predicate stops
// being stepped and reports the error in its update stream; the group
// (and its other predicates) keeps running, but Step returns an
// all-events predicate's failure from then on.
func (g *Group) failPred(p *predicate, err error) {
	p.err = err
	if p.all && g.err == nil {
		g.err = &DetectorError{Err: err}
	}
	p.seq++
	g.queued = append(g.queued, Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: p.possibly, Err: err.Error()})
	g.retire(p)
}

// Step ingests one event; causally ready events are routed immediately.
// It returns the delivery's error for a malformed event, or else the
// first failure of an all-events predicate (a *DetectorError): both
// are sticky.
//
//lint:hotpath
func (g *Group) Step(ev detect.Event) error {
	if err := g.delivery.Step(ev); err != nil {
		return err
	}
	return g.err
}

// OnDeliver installs a hook invoked for every causally delivered event,
// before routing. Transports use it to retain the delivered trace for
// the close-time rebuild (detect.Residue).
func (g *Group) OnDeliver(fn func(detect.Event)) { g.onDeliver = fn }

// OnCost installs a cost resolver: it is called once per registration
// — at Register, and here for every predicate already registered — with
// the predicate's tenant, family and id, and returns the sink that
// predicate's step deltas are charged to at every Flush (including the
// final steps of a predicate retired since the last one). The sink runs
// on the group's goroutine and must be cheap. The stream engine uses it
// to feed the cost ledger; mux itself stays metrics-free (the plain
// signature keeps the layering rule that mux imports no observability
// machinery).
func (g *Group) OnCost(resolve func(tenant, family, id string) func(steps int64)) {
	g.onCost = resolve
	for _, u := range g.States() { // id order: a deterministic resolver sequence
		g.resolveCost(g.preds[u.ID])
	}
}

// resolveCost fixes a predicate's cost sink through the installed
// resolver.
func (g *Group) resolveCost(p *predicate) {
	if g.onCost != nil {
		p.cost = g.onCost(p.tenant, p.spec.Family.String(), p.id)
	}
}

// deliver routes one causally delivered event.
func (g *Group) deliver(ev detect.Event) {
	// Copied, not kept: the event's clock may pin a whole decoded frame.
	if g.lastVC[ev.Proc] == nil {
		g.lastVC[ev.Proc] = make([]int64, g.procs, g.procs)
	}
	copy(g.lastVC[ev.Proc], ev.VC)
	if g.onDeliver != nil {
		g.onDeliver(ev)
	}
	if ev.Var != "" {
		g.recordVar(ev)
	}
	stepped := len(g.all)
	for i := len(g.all) - 1; i >= 0; i-- {
		g.stepPred(g.all[i], ev)
	}
	if subs, cores := g.byVar[ev.Var], g.cores[ev.Var]; len(subs) > 0 || len(cores) > 0 {
		pe := ev
		pe.VC = g.projs[ev.Var].project(ev.Proc, ev.VC)
		for i := len(subs) - 1; i >= 0; i-- {
			if p := subs[i]; p.procSet == nil || p.procSet[ev.Proc] {
				stepped++
				g.stepPred(p, pe)
			}
		}
		stepped += g.stepCores(cores, pe)
	}
	g.steps += int64(stepped)
	g.skipped += int64(g.active - stepped)
}

// stepPred feeds one event to one predicate's detector.
func (g *Group) stepPred(p *predicate, ev detect.Event) {
	p.owed++
	if err := p.det.Step(ev); err != nil {
		g.failPred(p, err)
		return
	}
	if !p.dirty {
		p.dirty = true
		g.dirty = append(g.dirty, p)
	}
}

// recordVar adds the event to its variable's delivered record.
func (g *Group) recordVar(ev detect.Event) {
	st := g.vars[ev.Var]
	if st == nil {
		st = g.newVarState()
		g.vars[ev.Var] = st
	}
	if q := ev.Proc; st.seen[q] {
		st.grade[0] = max(st.grade[0], stepGrade(ev.Val, st.val[q]))
	} else {
		st.seen[q], st.first[q] = true, ev.Val
	}
	st.delta += ev.Val
	st.grade[1] = max(st.grade[1], stepGrade(ev.Val, 0))
	st.val[ev.Proc] = ev.Val
	if ev.Truth {
		st.truth[ev.Proc] = 1
	} else {
		st.truth[ev.Proc] = 0
	}
}

// Flush advances every detector and shared core stepped since the last
// flush (one batched sweep each however many events arrived, then a
// constant-time fold per view of a flushed core), latches new verdicts,
// re-attaches the views of younger cores to older ones that have pruned
// past them, prunes the projections below the delivered frontier, and
// returns whether any registered predicate has latched Possibly.
func (g *Group) Flush() bool {
	for _, p := range g.dirty {
		p.dirty = false
		// Charge before the active check so a predicate that failed or
		// was unregistered mid-batch still accounts its final steps.
		g.charge(p)
		if !p.active {
			continue
		}
		verdict := p.det.Flush()
		w := p.det.Window()
		g.windowSum += w - p.window
		p.window = w
		if verdict && !p.possibly {
			g.latch(p)
		}
	}
	g.dirty = g.dirty[:0]
	for _, c := range g.dirtyCores {
		g.flushCore(c)
	}
	for _, c := range g.dirtyCores {
		if c.seeded && len(c.views) > 0 {
			g.absorb(c)
		}
	}
	g.dirtyCores = g.dirtyCores[:0]
	g.pruneProjections()
	return g.latched > 0
}

// charge moves a predicate's owed steps into its cost sink.
func (g *Group) charge(p *predicate) {
	if p.cost != nil && p.owed > 0 {
		p.cost(p.owed)
	}
	p.owed = 0
}

// pruneProjections drops projection state at or below the component-wise
// minimum of the last delivered clocks — the floor below which no future
// event's timestamp can reach. Until every process has delivered at
// least one event the floor is unknown and nothing is pruned (the same
// silent-process caveat the detector windows have; bound exposure with
// a max window).
func (g *Group) pruneProjections() {
	if len(g.projs) == 0 {
		return
	}
	mins := make([]int64, g.procs)
	for q := range mins {
		mins[q] = -1
	}
	for _, vc := range g.lastVC {
		if vc == nil {
			return
		}
		for q, v := range vc {
			if mins[q] < 0 || v < mins[q] {
				mins[q] = v
			}
		}
	}
	for _, pj := range g.projs {
		pj.prune(mins)
	}
}

// Drain returns the updates queued since the last Drain: one entry per
// verdict latch or predicate failure, sequence-numbered per predicate.
func (g *Group) Drain() []Update {
	out := g.queued
	g.queued = nil
	return out
}

// States reports the state of every registered predicate as of the
// last Flush, ordered by id — the close-time fan-out, one State per
// registration.
func (g *Group) States() []Update {
	out := make([]Update, 0, len(g.preds))
	for _, p := range g.preds {
		out = append(out, g.state(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// State reports one registration's state as of the last Flush (false:
// id is not registered). A predicate registered before the group's
// first delivered event also carries Definitely, decided from the
// endpoints every run shares (endpoint); one registered mid-stream (its
// runs do not start at the initial cut) or failed leaves
// DefinitelyKnown false.
func (g *Group) State(id string) (Update, bool) {
	p := g.preds[id]
	if p == nil {
		return Update{}, false
	}
	return g.state(p), true
}

func (g *Group) state(p *predicate) Update {
	u := Update{ID: p.id, Tenant: p.tenant, Seq: p.seq, Possibly: p.possibly}
	if p.err != nil {
		u.Err = p.err.Error()
	} else if p.atOpen {
		u.Definitely, u.DefinitelyKnown = g.endpoint(p)
	}
	return u
}

// endpoint decides an at-open predicate's Definitely from its endpoints
// (detect.Finalizer). A live detector answers itself. A routed one that
// latched released its detector, so the final cut is read from the
// variable's delivered record: a conjunction holds there iff every
// involved process last reported true, and a range view is handed the
// sum its core would hold — unless a step it never saw would have
// failed it.
func (g *Group) endpoint(p *predicate) (holds, known bool) {
	if fin, ok := p.det.(detect.Finalizer); ok {
		return fin.EndpointDefinitely()
	}
	st := g.vars[p.routeVar]
	if st == nil {
		st = g.newVarState() // nothing of the variable delivered
	}
	if p.view == nil {
		for q, in := range p.procSet {
			if in && st.truth[q] == 0 {
				return false, false
			}
		}
		return true, true
	}
	final, grade := st.delta, st.grade[1]
	if pl := p.core.payload; pl != detect.PayloadDelta {
		final, grade = 0, 0
		for q, v := range p.core.init {
			switch {
			case !st.seen[q]:
			case pl == detect.PayloadTruth:
				v = st.truth[q]
			default:
				grade = max(grade, st.grade[0], stepGrade(st.first[q], v))
				v = st.val[q]
			}
			final += v
		}
	}
	if grade > 0 && p.view.Fatal(gradeErr[grade]) {
		return false, false
	}
	return p.view.EndpointAt(final)
}

func (g *Group) newVarState() *varState {
	return &varState{val: make([]int64, g.procs), truth: make([]int64, g.procs), seen: make([]bool, g.procs), first: make([]int64, g.procs)}
}

// stepGrade grades one step of a sum as a range core does: 0 a unit
// step, 1 a non-unit one, 2 one past the kernels' bound (gradeErr).
func stepGrade(after, before int64) int8 {
	switch d, err := relsum.Step(after, before); {
	case err != nil:
		return 2
	case d > 1 || d < -1:
		return 1
	}
	return 0
}

var gradeErr = [...]error{nil, relsum.ErrNotUnitStep, relsum.ErrStepTooLarge}

// Delivered returns the total number of causally delivered events.
func (g *Group) Delivered() int64 { return g.delivery.Delivered() }

// Holdback returns the number of buffered undeliverable events.
func (g *Group) Holdback() int { return g.delivery.Holdback() }

// Tenant returns the tenant holding a registration ("" when id is not
// registered).
func (g *Group) Tenant(id string) string {
	if p := g.preds[id]; p != nil {
		return p.tenant
	}
	return ""
}

// Window returns the summed detector windows as of the last Flush.
func (g *Group) Window() int { return g.windowSum }

// Stats returns a point-in-time view of the group.
func (g *Group) Stats() Stats {
	return Stats{
		Registered: len(g.preds),
		Active:     g.active,
		Steps:      g.steps,
		Skipped:    g.skipped,
		Delivered:  g.delivery.Delivered(),
		Holdback:   g.delivery.Holdback(),
		Window:     g.windowSum,

		Cores:       g.ncores,
		CoreFlushes: g.coreFlushes,
		Closures:    g.closures,
	}
}
