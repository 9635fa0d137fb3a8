package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// Engine errors.
var (
	ErrEngineClosed   = errors.New("stream: engine is shut down")
	ErrUnknownSession = errors.New("stream: unknown session")
	ErrSessionExists  = errors.New("stream: session already open")
)

// Config sizes the engine.
type Config struct {
	// Shards is the number of worker goroutines; sessions are hashed
	// onto shards, and each session is owned by exactly one worker (so
	// detectors run lock-free). Default 4.
	Shards int
	// QueueLen is the per-shard mailbox capacity in messages. Default 256.
	QueueLen int
	// BatchSize is the maximum messages drained per worker iteration;
	// each session touched in a batch gets exactly one detector flush,
	// amortising closure recomputation over the whole drain. Default 64.
	BatchSize int
	// Metrics, when non-nil, receives the engine's operational metrics:
	// per-shard throughput, sessions and shed frames, mux routing economy,
	// SLO breaches, and the latency and work of
	// close-time Definitely rebuilds. The per-shard series are the very
	// counters Snapshot reads; with a nil registry the engine counts on
	// private ones, so Snapshot works either way.
	Metrics *obs.Registry
	// Flight, when non-nil, is the causal flight recorder: every append
	// frame gets a sequence number at ingress and leaves lifecycle
	// records (recv, held, delivered, update, verdict, shed, disconnect)
	// in the ring. A nil recorder costs one nil check per record.
	Flight *obs.Flight
	// SLO configures the latency/backlog watchdog; the zero value
	// disables it. Breaches bump slo_breaches_total{rule=...} and dump
	// the flight ring (see SLOConfig).
	SLO SLOConfig
	// MaxPredicatesPerTenant caps how many predicates one tenant may hold
	// registered at once across every multiplexed session of the engine;
	// Register fails once the cap is reached. 0 means no cap.
	MaxPredicatesPerTenant int
	// Ledger, when non-nil, attributes serving cost — per-batch CPU time,
	// detector steps, delivered events, wire bytes — to (tenant, family)
	// scopes plus a hot-predicate step table. A nil ledger costs one nil
	// check per batch (every scope handle is a nil no-op).
	Ledger *obs.Ledger
	// ProfileLabels, when true, wraps shard workers and batch detector
	// work in runtime/pprof labels (tenant, family, shard) so CPU and
	// heap profiles attribute samples to tenants. Off by default: label
	// swaps on every batch cost a few percent on the ingest path.
	ProfileLabels bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// handle is the cross-goroutine view of a session: the worker publishes
// counters through atomics, everyone else (stats endpoint, server append
// acks) reads without locks.
type handle struct {
	id     string
	kind   string // canonical predicate family of the session
	tenant string // owning tenant (Spec.Tenant, "default" when unset)
	shard  int

	sess *Session // owned by the shard worker; never touched elsewhere

	opened time.Time // for verdict latency

	// scope is the session's cost-attribution scope, interned at open
	// (before the registry publish, so cross-goroutine readers like
	// AttributeBytes see it without synchronization). Nil when the
	// ledger is off.
	scope *obs.Scope
	// labelCtx carries the session's pprof labels (tenant, family,
	// shard), pre-merged into a context at open so the per-frame label
	// swap is a pointer store, not a map merge. Nil when
	// Config.ProfileLabels is off; worker-confined.
	labelCtx context.Context

	// Worker-confined flight/SLO state (never read off the worker).
	lastSeq     uint64 // seq of the session's most recent append frame
	heldSeq     uint64 // seq that opened the current holdback episode (0 = none)
	sloHoldback bool   // holdback SLO latched for this session
	sloRetained bool   // retained-events SLO latched for this session

	// Worker-confined multiplexing state: undelivered verdict updates.
	pending []mux.Update

	ingested   atomic.Uint64
	delivered  atomic.Int64
	holdback   atomic.Int64
	window     atomic.Int64
	flushes    atomic.Int64
	registered atomic.Int64 // mux sessions: predicates registered
	active     atomic.Int64 // mux sessions: predicates still stepping
	steps      atomic.Int64 // mux sessions: detector steps taken
	skipped    atomic.Int64 // mux sessions: detector steps avoided by routing
	possibly   atomic.Bool
	errStr     atomic.Value // string
}

func (h *handle) stats() SessionStats {
	st := SessionStats{
		ID:        h.id,
		Kind:      h.kind,
		Tenant:    h.tenant,
		Shard:     h.shard,
		Ingested:  h.ingested.Load(),
		Delivered: h.delivered.Load(),
		Holdback:  int(h.holdback.Load()),
		Window:    int(h.window.Load()),
		Flushes:   int(h.flushes.Load()),
		Possibly:  h.possibly.Load(),

		Registered: int(h.registered.Load()),
		Active:     int(h.active.Load()),
		Steps:      h.steps.Load(),
		Skipped:    h.skipped.Load(),
	}
	if e, _ := h.errStr.Load().(string); e != "" {
		st.Error = e
	}
	return st
}

// shard is one worker: a mailbox plus the sessions it owns.
type shard struct {
	idx      int
	mb       *mailbox
	sessions map[string]*handle // worker-goroutine confined

	sloMailbox bool // mailbox SLO latched for this shard (worker-confined)

	// One store per fact: stream_*{shard=...} in Config.Metrics (private
	// when that is nil), read by Snapshot and /metrics alike.
	frames, events, batches            *obs.Counter
	shedFrames, shedEvents, detections *obs.Counter
	open                               *obs.Gauge // stream_sessions

	// baseCtx carries the worker's own pprof labels (subsystem, shard),
	// restored after each session's labeled window. Set once in run();
	// nil when Config.ProfileLabels is off. Worker-confined.
	baseCtx context.Context
}

// Engine is the multi-tenant streaming detector: a pool of shard workers
// behind bounded mailboxes. Open/Query/CloseSession are synchronous;
// Append is asynchronous and blocks while its shard's mailbox is full.
type Engine struct {
	cfg      Config
	shards   []*shard
	registry sync.Map // session id -> *handle
	wg       sync.WaitGroup
	closed   atomic.Bool

	flight *obs.Flight
	ledger *obs.Ledger

	// SLO watchdog state (see slo.go).
	sloDumped    sync.Map // rule -> struct{}: rules that already dumped
	shedTotal    atomic.Uint64
	sloShedFired atomic.Bool
	sloCPUFired  sync.Map // tenant -> struct{}: CPU-share rule latched

	// Control-plane predicate accounting: registrations minus
	// unregistrations minus releases at session close, per tenant.
	// Guarded by predMu (Register/Unregister/CloseSession are control
	// traffic, never the ingest hot path).
	predMu       sync.Mutex
	tenantCounts map[string]int

	// Engine-wide registry handles.
	mFinalizeMillis *obs.Histogram
	mMuxSteps       *obs.Counter
	mMuxSkipped     *obs.Counter
	// Labeled vectors: interning and the cardinality cap live in obs.
	vTenantPreds  *obs.GaugeVec   // mux_registered_predicates{tenant=...}
	vFinalizeWork *obs.CounterVec // stream_finalize_work_total{counter=...}
	vBreaches     *obs.CounterVec // slo_breaches_total{rule=...}
}

// NewEngine starts the shard pool.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, flight: cfg.Flight, ledger: cfg.Ledger, tenantCounts: make(map[string]int)}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry() // private: nobody scrapes it, Snapshot still counts
	}
	e.mFinalizeMillis = m.Histogram("stream_finalize_millis", obs.ExpBuckets(1, 16)...)
	e.mMuxSteps = m.Counter("mux_steps_total")
	e.mMuxSkipped = m.Counter("mux_steps_skipped_total")
	e.vTenantPreds = m.GaugeVec("mux_registered_predicates", "tenant")
	e.vFinalizeWork = m.CounterVec("stream_finalize_work_total", "counter")
	// Pre-interned so every rule exports an explicit zero before it
	// first fires (scrapers can always alert on the series).
	e.vBreaches = m.CounterVec("slo_breaches_total", "rule")
	for _, rule := range sloRules {
		e.vBreaches.With(rule)
	}
	for i := 0; i < cfg.Shards; i++ {
		label := strconv.Itoa(i)
		counter := func(name string) *obs.Counter { return m.CounterVec(name, "shard").With(label) }
		sh := &shard{
			idx:      i,
			mb:       newMailbox(cfg.QueueLen),
			sessions: make(map[string]*handle),

			frames:     counter("stream_frames_total"),
			events:     counter("stream_events_total"),
			batches:    counter("stream_batches_total"),
			shedFrames: counter("stream_shed_frames_total"),
			shedEvents: counter("stream_shed_events_total"),
			detections: counter("stream_detections_total"),
			open:       m.GaugeVec("stream_sessions", "shard").With(label),
		}
		e.shards = append(e.shards, sh)
		e.wg.Add(1)
		go e.run(sh)
	}
	return e
}

// shardFor hashes a session id onto its owning shard. FNV-1a is inlined
// over the string: hash/fnv would allocate a hasher and copy the id into
// a []byte on every Append.
func (e *Engine) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	// Reduce before converting: where int is 32 bits, int(h) is negative
	// for half of all hashes.
	return e.shards[int(h%uint32(len(e.shards)))]
}

// run is one shard worker loop: drain a batch, apply every message, then
// flush each touched session exactly once and publish its counters.
func (e *Engine) run(sh *shard) {
	defer e.wg.Done()
	if e.cfg.ProfileLabels {
		// Base labels for everything this worker does outside a session's
		// withLabels window (drain, routing, bookkeeping). A goroutine
		// profile at debug=1 prints these, which is what the label
		// presence test asserts deterministically.
		sh.baseCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("subsystem", "gpd-stream", "shard", strconv.Itoa(sh.idx)))
		pprof.SetGoroutineLabels(sh.baseCtx)
	}
	batch := make([]shardMsg, 0, e.cfg.BatchSize)
	touched := make(map[string]*handle)
	var ids []string // reused per batch for sorted flush order
	tick := 0
	for {
		var ok bool
		batch, ok = sh.mb.drain(batch[:0], e.cfg.BatchSize)
		for _, m := range batch {
			e.apply(sh, m, touched)
		}
		if len(batch) > 0 {
			sh.batches.Inc()
			tick++
			if max := e.cfg.SLO.MailboxDepth; max > 0 && !sh.sloMailbox {
				if depth, _ := sh.mb.depth(); depth > max {
					sh.sloMailbox = true
					e.breach(SLOMailboxDepth, "shard "+strconv.Itoa(sh.idx)+
						": mailbox depth "+strconv.Itoa(depth)+" > "+strconv.Itoa(max))
				}
			}
		}
		// Flush touched sessions in sorted id order: Record/publish feed
		// the flight recorder and the metrics registry, whose contents
		// are diffed run to run — map order must not leak into them.
		ids = ids[:0]
		for id := range touched {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			h := touched[id]
			delete(touched, id)
			if h.sess == nil {
				continue // closed within the batch
			}
			t0 := e.costStart()
			e.withLabels(sh, h, func() { h.sess.Flush() })
			e.costEnd(h, t0)
			e.flight.Record(obs.FlightRecord{
				Seq: h.lastSeq, Session: id, Shard: sh.idx, Proc: -1,
				Stage: obs.StageUpdate, Detail: "flush " + strconv.FormatInt(int64(h.sess.Flushes()), 10),
			})
			e.drainUpdates(sh, h)
			e.publish(sh, h)
			// The ledger sums behind the noisy-neighbour rule (a mutex plus
			// a scope scan) stay off the per-batch path: ingest evaluates it
			// on every 8th non-empty batch, control messages always (apply).
			if tick&7 == 0 {
				e.checkTenantCPUShare(h.tenant)
			}
		}
		if !ok {
			return
		}
	}
}

// withLabels runs fn under the session's pprof labels (tenant, family,
// shard), so CPU and heap profile samples taken while detector work
// runs attribute to the owning tenant. A direct call when profile
// labels are off. The contexts are pre-merged (open for the session,
// run for the worker base), so each swap is a runtime pointer store —
// pprof.Do would rebuild the label map on every frame.
func (e *Engine) withLabels(sh *shard, h *handle, fn func()) {
	if h.labelCtx == nil {
		fn()
		return
	}
	pprof.SetGoroutineLabels(h.labelCtx)
	fn()
	pprof.SetGoroutineLabels(sh.baseCtx)
}

// predCost is one registered predicate's cost sink, resolved when the
// predicate registers: its (tenant, family) scope and its hot-table
// row, interned on the first charge so a predicate that never steps
// leaves no row. Worker-confined.
type predCost struct {
	ledger             *obs.Ledger
	id, tenant, family string
	scope              *obs.Scope
	steps              *obs.Counter
}

// charge adds the steps one flush owes the predicate: after the first
// call, two atomic adds.
//
//lint:hotpath
func (c *predCost) charge(steps int64) {
	if c.steps == nil {
		c.scope = c.ledger.Scope(c.tenant, c.family)
		c.steps = c.ledger.Predicate(c.id, c.tenant, c.family)
	}
	c.scope.AddSteps(steps)
	c.steps.Add(steps)
}

// costStart opens a CPU-attribution window: the wall clock on the
// worker goroutine, which between costStart and costEnd is running
// nothing but the session's detector work. Zero (and free) when the
// ledger is off.
func (e *Engine) costStart() time.Time {
	if e.ledger == nil {
		return time.Time{}
	}
	return time.Now()
}

// costEnd closes the window opened by costStart and charges the
// elapsed nanoseconds to the session's scope.
func (e *Engine) costEnd(h *handle, t0 time.Time) {
	if e.ledger == nil {
		return
	}
	h.scope.AddCPU(int64(time.Since(t0)))
}

// publish copies a session's state into its handle's atomics, feeds the
// engine-wide mux series by delta, and evaluates the
// per-session SLO rules. Runs once per touched session per batch.
func (e *Engine) publish(sh *shard, h *handle) {
	s := h.sess
	holdback := int64(s.Holdback())
	h.delivered.Store(s.Delivered())
	h.holdback.Store(holdback)
	h.window.Store(int64(s.Window()))
	h.flushes.Store(int64(s.Flushes()))
	if err := s.Err(); err != nil {
		h.errStr.Store(err.Error())
	}
	if s.Mux() {
		ms := s.MuxStats()
		h.registered.Store(int64(ms.Registered))
		h.active.Store(int64(ms.Active))
		e.mMuxSteps.Add(ms.Steps - h.steps.Swap(ms.Steps))
		e.mMuxSkipped.Add(ms.Skipped - h.skipped.Swap(ms.Skipped))
	}
	if max := e.cfg.SLO.RetainedEvents; max > 0 && !h.sloRetained {
		if re := s.RetainedEvents(); re > max {
			h.sloRetained = true
			e.breach(SLORetainedEvents, h.id+": retained events "+
				strconv.Itoa(re)+" > "+strconv.Itoa(max))
		}
	}
	if max := e.cfg.SLO.HoldbackDepth; max > 0 && int(holdback) > max && !h.sloHoldback {
		h.sloHoldback = true
		e.breach(SLOHoldbackDepth, h.id+": holdback depth "+
			strconv.FormatInt(holdback, 10)+" > "+strconv.Itoa(max))
	}
	if s.Possibly() && !h.possibly.Load() {
		h.possibly.Store(true)
		sh.detections.Inc()
		latency := time.Since(h.opened)
		e.flight.Record(obs.FlightRecord{
			Seq: h.lastSeq, Session: h.id, Shard: sh.idx, Proc: -1,
			Stage: obs.StageVerdict, Detail: "possibly latched after " + latency.String(),
		})
		if max := e.cfg.SLO.VerdictLatency; max > 0 && latency > max {
			e.breach(SLOVerdictLatency, h.id+": verdict latency "+
				latency.String()+" > "+max.String())
		}
	}
}

// apply processes one mailbox message on the worker goroutine.
func (e *Engine) apply(sh *shard, m shardMsg, touched map[string]*handle) {
	sh.frames.Inc()
	h := sh.sessions[m.session]
	switch {
	case m.kind == msgAppend:
	case m.kind == msgOpen && h != nil:
		m.reply <- shardReply{err: fmt.Errorf("%w: %q", ErrSessionExists, m.session)}
		return
	case m.kind != msgOpen && h == nil:
		m.reply <- shardReply{err: fmt.Errorf("%w: %q", ErrUnknownSession, m.session)}
		return
	case h != nil:
		e.checkTenantCPUShare(h.tenant) // control traffic: see run for the ingest cadence
	}
	switch m.kind {
	case msgOpen:
		sess, err := NewSession(m.spec)
		if err != nil {
			m.reply <- shardReply{err: err}
			return
		}
		tenant := m.spec.Tenant
		if tenant == "" {
			tenant = "default"
		}
		h = &handle{id: m.session, kind: sess.KindLabel(), tenant: tenant, shard: sh.idx, sess: sess, opened: time.Now()}
		h.scope = e.ledger.Scope(tenant, h.kind)
		if e.ledger != nil {
			// Each predicate charges its own sink, so multiplexed
			// sessions attribute steps to each registration's tenant and
			// family; the session's built-in all-events predicate maps
			// back to the session id.
			id := m.session
			sess.OnCost(func(tenant, family, pid string) func(int64) {
				if pid == sessionPred {
					pid = id
				}
				return (&predCost{ledger: e.ledger, id: pid, tenant: tenant, family: family}).charge
			})
		}
		if e.cfg.ProfileLabels {
			h.labelCtx = pprof.WithLabels(context.Background(),
				pprof.Labels("tenant", tenant, "family", h.kind, "shard", strconv.Itoa(sh.idx)))
		}
		sh.sessions[m.session] = h
		e.registry.Store(m.session, h)
		sh.open.Add(1)
		e.publish(sh, h) // a satisfied initial cut latches immediately
		m.reply <- shardReply{}
	case msgAppend:
		if h == nil {
			e.accountShed(sh, m.session, m.seq, len(m.events), "unknown session")
			return
		}
		sh.events.Add(int64(len(m.events)))
		h.ingested.Add(uint64(len(m.events)))
		h.scope.AddEvents(int64(len(m.events)))
		h.lastSeq = m.seq
		deliveredBefore := h.sess.Delivered()
		t0 := e.costStart()
		e.withLabels(sh, h, func() {
			for _, ev := range m.events {
				if h.sess.Step(ev) != nil {
					break // sticky error; publish carries it to the handle
				}
			}
		})
		e.costEnd(h, t0)
		e.recordFrame(sh, h, m, deliveredBefore)
		touched[m.session] = h
	case msgQuery:
		h.sess.Flush()
		e.drainUpdates(sh, h)
		e.publish(sh, h)
		ups := h.pending
		h.pending = nil
		m.reply <- shardReply{stats: h.stats(), updates: ups}
	case msgRegister:
		ps, err := pred.Parse(m.reg.Pred)
		if err != nil {
			m.reply <- shardReply{err: fmt.Errorf("stream: %w", err)}
			return
		}
		tenant := m.reg.Tenant // defaulted by Engine.Register
		if err := h.sess.Register(mux.Registration{
			ID:       m.reg.ID,
			Tenant:   tenant,
			Spec:     ps,
			Involved: m.reg.Involved,
			Init:     m.reg.Init,
		}); err != nil {
			m.reply <- shardReply{err: err}
			return
		}
		e.flight.Record(obs.FlightRecord{
			Seq: h.lastSeq, Session: m.session, Shard: sh.idx, Proc: -1,
			Stage: obs.StageUpdate, Detail: "register " + m.reg.ID + " (" + tenant + ")",
		})
		e.drainUpdates(sh, h) // a satisfied registration cut latches immediately
		ups := h.pending
		h.pending = nil
		e.publish(sh, h)
		m.reply <- shardReply{updates: ups}
	case msgUnregister:
		tenant, err := h.sess.Unregister(m.pred)
		if err != nil {
			m.reply <- shardReply{err: err}
			return
		}
		e.publish(sh, h)
		m.reply <- shardReply{preds: []mux.Update{{ID: m.pred, Tenant: tenant}}}
	case msgClose:
		var tr *obs.Trace
		if e.cfg.Metrics != nil {
			tr = obs.NewTrace()
		}
		start := time.Now()
		var verdict Verdict
		var err error
		e.withLabels(sh, h, func() { verdict, err = h.sess.FinalizeTraced(tr) })
		e.mFinalizeMillis.Observe(time.Since(start).Milliseconds())
		if e.ledger != nil {
			// The close-time Definitely rebuild is the engine's most
			// expensive batch entry point; charge it like any batch.
			h.scope.AddCPU(int64(time.Since(start)))
		}
		e.foldFinalizeWork(tr)
		e.drainUpdates(sh, h)
		var preds []mux.Update
		if h.sess.Mux() {
			preds = h.sess.PredicateStates()
		}
		e.publish(sh, h)
		delete(sh.sessions, m.session)
		e.registry.Delete(m.session)
		sh.open.Add(-1)
		h.sess = nil
		h.pending = nil
		delete(touched, m.session)
		e.flight.Record(obs.FlightRecord{
			Seq: h.lastSeq, Session: m.session, Shard: sh.idx, Proc: -1,
			Stage: obs.StageDisconnect, Detail: "session closed",
		})
		m.reply <- shardReply{verdict: verdict, err: err, preds: preds}
	}
}

// drainUpdates moves a multiplexed session's freshly queued per-predicate
// verdict updates into the handle's pending list (delivered by the next
// query or register reply), leaving a flight record per update.
// Worker-confined.
// Session-level detection counters are bumped by publish (once per
// session); per-predicate latches are visible in mux stats and updates.
func (e *Engine) drainUpdates(sh *shard, h *handle) {
	if h.sess == nil || !h.sess.Mux() {
		return
	}
	ups := h.sess.Updates()
	for _, u := range ups {
		detail := "predicate " + u.ID + " possibly latched"
		if u.Err != "" {
			detail = "predicate " + u.ID + " failed: " + u.Err
		}
		e.flight.Record(obs.FlightRecord{
			Seq: h.lastSeq, Session: h.id, Shard: sh.idx, Proc: -1,
			Stage: obs.StageVerdict, Detail: detail,
		})
	}
	h.pending = append(h.pending, ups...)
}

// recordFrame leaves an append frame's post-detector lifecycle records:
// a delivered record when the frame advanced causal delivery, a held
// record when it opened a holdback episode, and — when the episode
// drains — a closing delivered record carrying the opening frame's seq,
// which is what the Chrome export pairs into a holdback duration slice.
func (e *Engine) recordFrame(sh *shard, h *handle, m shardMsg, deliveredBefore int64) {
	if e.flight == nil {
		return // skip the delta bookkeeping too, not just the records
	}
	if delta := h.sess.Delivered() - deliveredBefore; delta > 0 {
		e.flight.Record(obs.FlightRecord{
			Seq: m.seq, Session: m.session, Shard: sh.idx, Proc: -1,
			Stage: obs.StageDelivered, Detail: strconv.FormatInt(delta, 10) + " events",
		})
	}
	holdback := h.sess.Holdback()
	if holdback > 0 && h.heldSeq == 0 {
		h.heldSeq = m.seq
		e.flight.Record(obs.FlightRecord{
			Seq: m.seq, Session: m.session, Shard: sh.idx, Proc: -1,
			Stage: obs.StageHeld, Detail: strconv.Itoa(holdback) + " events held",
		})
	}
	if holdback == 0 && h.heldSeq != 0 {
		e.flight.Record(obs.FlightRecord{
			Seq: h.heldSeq, Session: m.session, Shard: sh.idx, Proc: -1,
			Stage: obs.StageDelivered, Detail: "holdback drained",
		})
		h.heldSeq = 0
	}
}

// foldFinalizeWork adds the work counters of a close-time Definitely
// rebuild into the registry, one labeled counter per detector counter —
// the accounting the old Finalize path dropped on the floor.
func (e *Engine) foldFinalizeWork(tr *obs.Trace) {
	if tr == nil {
		return
	}
	counters := tr.Report().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.vFinalizeWork.With(name).Add(counters[name])
	}
}

// sync sends a control message to the owning shard and waits for the
// worker's reply.
func (e *Engine) sync(id string, m shardMsg) (shardReply, error) {
	if e.closed.Load() {
		return shardReply{}, ErrEngineClosed
	}
	m.session = id
	m.reply = make(chan shardReply, 1)
	if !e.shardFor(id).mb.put(m) {
		return shardReply{}, ErrEngineClosed
	}
	return <-m.reply, nil
}

// Open creates a session.
func (e *Engine) Open(id string, spec Spec) error {
	r, err := e.sync(id, shardMsg{kind: msgOpen, spec: spec})
	if err != nil {
		return err
	}
	return r.err
}

// Append enqueues events for a session, blocking while the owning
// shard's mailbox is full. It is asynchronous: delivery and detection
// happen on the owning shard worker, which sheds (and counts in the
// shard's dropped counters) a frame for a session it does not hold.
//
//lint:hotpath
func (e *Engine) Append(id string, events []Event) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	sh := e.shardFor(id)
	seq := e.flight.NextSeq()
	if e.flight != nil { // build the record (proc, detail) only when recording
		proc := -1
		if len(events) > 0 {
			proc = events[0].Proc
		}
		e.flight.Record(obs.FlightRecord{
			Seq: seq, Session: id, Shard: sh.idx, Proc: proc,
			Stage: obs.StageRecv, Detail: strconv.Itoa(len(events)) + " events",
		})
	}
	if !sh.mb.put(shardMsg{kind: msgAppend, session: id, seq: seq, events: events}) {
		return ErrEngineClosed
	}
	return nil
}

// QueryUpdates flushes a session and returns its counters plus, on a
// multiplexed session, the per-predicate verdict updates queued since
// the previous drain.
func (e *Engine) QueryUpdates(id string) (SessionStats, []mux.Update, error) {
	r, err := e.sync(id, shardMsg{kind: msgQuery})
	if err != nil {
		return SessionStats{}, nil, err
	}
	return r.stats, r.updates, r.err
}

// Register attaches a predicate to an open multiplexed session, counted
// against the owning tenant's cap (Config.MaxPredicatesPerTenant). The
// returned updates are any verdicts that latched at the registration cut
// itself.
func (e *Engine) Register(session string, r RegisterSpec) ([]mux.Update, error) {
	tenant := r.Tenant
	if tenant == "" {
		tenant = "default"
	}
	r.Tenant = tenant
	if err := e.reserveTenant(tenant); err != nil {
		return nil, err
	}
	rep, err := e.sync(session, shardMsg{kind: msgRegister, reg: r})
	if err == nil {
		err = rep.err
	}
	if err != nil {
		e.releaseTenants([]mux.Update{{Tenant: tenant}})
		return nil, err
	}
	return rep.updates, nil
}

// Unregister detaches a predicate from a multiplexed session, returning
// its slot to the owning tenant.
func (e *Engine) Unregister(session, predID string) error {
	rep, err := e.sync(session, shardMsg{kind: msgUnregister, pred: predID})
	if err == nil {
		err = rep.err
	}
	if err != nil {
		return err
	}
	e.releaseTenants(rep.preds)
	return nil
}

// ClosePredicates finalizes a session and returns its verdict (including
// Definitely when the spec retained the trace) plus, on a multiplexed
// session, the final state of every still-registered predicate, whose
// registrations are returned to their tenants.
func (e *Engine) ClosePredicates(id string) (Verdict, []mux.Update, error) {
	r, err := e.sync(id, shardMsg{kind: msgClose})
	if err != nil {
		return Verdict{}, nil, err
	}
	e.releaseTenants(r.preds)
	return r.verdict, r.preds, r.err
}

// reserveTenant admits one registration against the tenant's cap and
// updates the per-tenant gauge.
func (e *Engine) reserveTenant(tenant string) error {
	e.predMu.Lock()
	if max := e.cfg.MaxPredicatesPerTenant; max > 0 && e.tenantCounts[tenant] >= max {
		n := e.tenantCounts[tenant]
		e.predMu.Unlock()
		return fmt.Errorf("stream: tenant %q holds %d registered predicates (limit %d)", tenant, n, max)
	}
	e.tenantCounts[tenant]++
	e.predMu.Unlock()
	e.vTenantPreds.With(tenant).Add(1)
	return nil
}

// releaseTenants returns the registrations' slots to their tenants in
// the order given (a close's fan-out is sorted by id), so the per-tenant
// gauges move identically run to run.
func (e *Engine) releaseTenants(regs []mux.Update) {
	e.predMu.Lock()
	for _, r := range regs {
		e.tenantCounts[r.Tenant]--
		if e.tenantCounts[r.Tenant] <= 0 {
			delete(e.tenantCounts, r.Tenant)
		}
	}
	e.predMu.Unlock()
	for _, r := range regs {
		e.vTenantPreds.With(r.Tenant).Add(-1)
	}
}

// AttributeBytes charges wire traffic to a session's (tenant, family)
// scope — the transport calls it per request once it knows the session
// the bytes belong to. A no-op without a ledger or for unknown
// sessions (idle keepalives, misaddressed frames).
func (e *Engine) AttributeBytes(session string, in, out int64) {
	if e.ledger == nil || session == "" {
		return
	}
	v, ok := e.registry.Load(session)
	if !ok {
		return
	}
	v.(*handle).scope.AddBytes(in, out)
}

// Possibly returns a session's latched verdict without synchronizing with
// its worker (it may trail in-flight appends; a true answer is final).
func (e *Engine) Possibly(id string) (possibly, exists bool) {
	v, ok := e.registry.Load(id)
	if !ok {
		return false, false
	}
	return v.(*handle).possibly.Load(), true
}

// Snapshot assembles the stats surface without blocking any worker.
func (e *Engine) Snapshot() Snapshot {
	var snap Snapshot
	for _, sh := range e.shards {
		_, hw := sh.mb.depth()
		st := ShardStats{
			Shard:          sh.idx,
			Sessions:       int(sh.open.Value()),
			Frames:         uint64(sh.frames.Value()),
			Events:         uint64(sh.events.Value()),
			Batches:        uint64(sh.batches.Value()),
			DroppedFrames:  uint64(sh.shedFrames.Value()),
			DroppedEvents:  uint64(sh.shedEvents.Value()),
			QueueHighWater: hw,
			Detections:     uint64(sh.detections.Value()),
		}
		snap.Shards = append(snap.Shards, st)
		snap.Events += st.Events
		snap.Dropped += st.DroppedFrames
		snap.Detections += st.Detections
	}
	e.registry.Range(func(_, v any) bool {
		snap.Sessions = append(snap.Sessions, v.(*handle).stats())
		return true
	})
	// sync.Map range order is arbitrary; snapshots are diffed in tests
	// and scraped by CI, so present sessions in id order.
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ID < snap.Sessions[j].ID })
	e.predMu.Lock()
	if len(e.tenantCounts) > 0 {
		snap.Tenants = make(map[string]int, len(e.tenantCounts))
		for t, n := range e.tenantCounts {
			snap.Tenants[t] = n
			snap.Predicates += n
		}
	}
	e.predMu.Unlock()
	return snap
}

// Shutdown stops the workers after draining queued messages. Idempotent.
func (e *Engine) Shutdown() {
	if e.closed.Swap(true) {
		return
	}
	for _, sh := range e.shards {
		sh.mb.close()
	}
	e.wg.Wait()
}
