package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// Pass B of the traced run: the workload's own frames replayed in process
// through each layer's public API, outermost first. The layers nest —
// wire > engine > session > mux group > {causal delivery, detector,
// slicer} — so a layer's self time is its time minus the layers it
// contains. Everything here is measured from outside the packages; spans
// inside them are a later change.

// script is the slice of a workload the layers replay: connection 0's
// sessions, a fixed number of frames.
type script struct {
	procs          int
	sessions       []scriptSession
	events         int
	frames         int
	framesPerFlush float64 // frames per detector flush, as the server was observed to do
}

type scriptSession struct {
	id         string
	spec       stream.Spec
	regs       []muxPred
	frames     [][]stream.Event
	queryAfter []bool                   // a query follows frame i
	comp       *computation.Computation // for the offline slice (nil: none)
	sliceVars  []string                 // variables with a slicer ("x" for a sliced session's own)
}

func (r *onlineRun) script() *script {
	sc := &script{framesPerFlush: math.Max(1, r.rep.values["engine.frames_per_flush"])}
	if in := r.closed; in != nil {
		src := in.source(0)
		s := scriptSession{id: "layers-0", spec: stream.Spec{Pred: ingestPred, Procs: in.procs}}
		if in.mux {
			s.spec, s.regs = stream.Spec{Mux: true, Procs: in.procs}, in.preds
			for v := 0; v < muxVars; v++ { // every variable has sliced all(v) registrations
				s.sliceVars = append(s.sliceVars, muxVar(v))
			}
		}
		n := max(in.framesPerCP, int(float64(in.layerFrames)*r.opt.scale))
		var all []stream.Event
		var deps []dep
		for f := 0; f < n; f++ {
			evs, ds := src.frame(in.frameEvents)
			s.frames = append(s.frames, evs)
			s.queryAfter = append(s.queryAfter, (f+1)%in.framesPerCP == 0)
			if len(all) < oraclePrefix {
				all, deps = append(all, evs...), append(deps, ds...)
			}
		}
		if in.mux {
			// The offline slice is computed on the oracle-sized prefix.
			if c, err := computationOf(in.procs, all, deps, "x"); err == nil {
				s.comp = c
			}
		}
		sc.procs, sc.sessions = in.procs, []scriptSession{s}
	} else {
		sc.procs = vsProcs
		for _, p := range r.plans[0][:min(len(r.plans[0]), max(5, int(64*r.opt.scale)))] {
			s := scriptSession{id: "layers-" + p.id, spec: p.spec, frames: p.frames, queryAfter: make([]bool, len(p.frames))}
			if p.witness >= 0 {
				s.queryAfter[p.witness] = true
			}
			s.queryAfter[len(p.frames)-1] = true
			if p.spec.Slice {
				s.comp, s.sliceVars = p.comp, []string{"x"}
			}
			sc.sessions = append(sc.sessions, s)
		}
	}
	for _, s := range sc.sessions {
		sc.frames += len(s.frames)
		for _, f := range s.frames {
			sc.events += len(f)
		}
	}
	return sc
}

// layerLog collects the per-frame spans of every layer and links each to
// the same frame's span in the enclosing layer.
type layerLog struct {
	log *spanLog
	ids map[string][]int // layer -> span id per global frame index
}

var enclosing = map[string]string{"engine": "wire", "session": "engine", "group": "session", "delivery": "group", "detect": "group", "slicing": "group"}

func (l *layerLog) frame(layer, name, session string, start time.Time, d time.Duration) {
	l.ids[layer] = append(l.ids[layer], l.log.add(name, session, 0, start, d))
}

func (l *layerLog) link() {
	for layer, parent := range enclosing {
		for i, id := range l.ids[layer] {
			if i < len(l.ids[parent]) {
				l.log.spans[id-l.log.base-1].Parent = l.ids[parent][i]
			}
		}
	}
}

// mallocs reads the allocation count after a collection, so that each
// replay starts from the same heap.
func mallocs() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (r *onlineRun) replayLayers(log *spanLog) error {
	sc := r.script()
	ll := &layerLog{log: log, ids: map[string][]int{}}
	rep := r.rep
	n := float64(sc.events)
	perEvent := func(d time.Duration) float64 { return float64(d) / n }

	// engine, as the server configures it, then bare for the obs overhead.
	metrics := obs.NewRegistry()
	obs.BindRuntimeMetrics(metrics)
	flight := obs.NewFlight(4096)
	full := stream.Config{Shards: 4, QueueLen: 256, BatchSize: 64, Metrics: metrics, Flight: flight, Ledger: obs.NewLedger()}
	engCPU, engMallocs, responses, err := replayEngine(sc, full, ll)
	if err != nil {
		return fmt.Errorf("engine replay: %w", err)
	}
	rep.set("engine.ns_per_event", perEvent(engCPU), sc.events)
	rep.set("engine.allocs_per_event", float64(engMallocs)/n, sc.events)
	rep.set("obs.flight_records_per_event", float64(flight.Dump().Total)/n, sc.events)
	// Instrumented against bare, alternating, medians: one pair alone
	// swings by tens of percent with the scheduler.
	with, without := []float64{float64(engCPU)}, []float64{}
	for i := 0; i < 3; i++ {
		bare, _, _, err := replayEngine(sc, stream.Config{Shards: 4, QueueLen: 256, BatchSize: 64}, nil)
		if err != nil {
			return fmt.Errorf("bare engine replay: %w", err)
		}
		without = append(without, float64(bare))
		if i == 2 {
			break
		}
		full.Metrics, full.Flight, full.Ledger = obs.NewRegistry(), obs.NewFlight(4096), obs.NewLedger()
		inst, _, _, err := replayEngine(sc, full, nil)
		if err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
		with = append(with, float64(inst))
	}
	rep.set("obs.engine_overhead_share", 100*(median(with)/median(without)-1), len(with))

	wireServer, err := replayWire(sc, responses, rep, ll)
	if err != nil {
		return fmt.Errorf("wire replay: %w", err)
	}

	sess, err := replaySessions(sc, rep, ll)
	if err != nil {
		return fmt.Errorf("session replay: %w", err)
	}
	rep.set("session.ns_per_event", perEvent(sess), sc.events)
	rep.set("engine.self_ns_per_event", perEvent(engCPU-sess), sc.events)

	group, delivered, err := replayGroups(sc, rep, ll)
	if err != nil {
		return fmt.Errorf("mux replay: %w", err)
	}
	rep.set("mux.group_ns_per_event", perEvent(group), sc.events)
	rep.set("session.self_ns_per_event", perEvent(sess-group), sc.events)

	inner := replayDelivery(sc, rep, ll)
	rep.set("mux.delivery_ns_per_event", perEvent(inner), sc.events)
	d, err := replayDetectors(sc, delivered, rep, ll)
	if err != nil {
		return fmt.Errorf("detector replay: %w", err)
	}
	s, err := replaySlicers(sc, delivered, rep, ll)
	if err != nil {
		return fmt.Errorf("slicer replay: %w", err)
	}
	rep.set("mux.self_ns_per_event", perEvent(group-inner-d-s), sc.events)
	ll.link()

	// What of the server's CPU the layers do not account for, per event.
	residual := rep.values["cpu_us_per_event"] - (perEvent(wireServer)+perEvent(engCPU))/1e3
	rep.set("server.residual_us_per_event", residual, 1)
	rep.set("server.residual_share", 100*residual/rep.values["cpu_us_per_event"], 1)
	return nil
}

// replayEngine drives the script through stream.Engine and returns the
// process CPU it took (the engine works on its own goroutines, so wall
// time would hide work), the allocation count, and every reply a server
// would have had to encode.
func replayEngine(sc *script, cfg stream.Config, ll *layerLog) (time.Duration, uint64, []stream.Response, error) {
	eng := stream.NewEngine(cfg)
	defer eng.Shutdown()
	var out []stream.Response
	ok := stream.Response{V: stream.ProtocolVersion, OK: true}
	m0, cpu0 := mallocs(), selfCPU()
	for _, s := range sc.sessions {
		if err := eng.Open(s.id, s.spec); err != nil {
			return 0, 0, nil, err
		}
		out = append(out, ok)
		for _, p := range s.regs {
			ups, err := eng.Register(s.id, p.reg)
			if err != nil {
				return 0, 0, nil, err
			}
			out = append(out, stream.Response{V: stream.ProtocolVersion, OK: true, Updates: ups})
		}
		for f, frame := range s.frames {
			t0 := time.Now()
			if err := eng.Append(s.id, frame); err != nil {
				return 0, 0, nil, err
			}
			if ll != nil {
				ll.frame("engine", "engine.append", s.id, t0, time.Since(t0))
			}
			out = append(out, ok)
			if !sc.flushAfter(&s, f) {
				continue
			}
			// A query wherever the server was seen to flush: in process the
			// producer outruns the worker, and without this the engine
			// would batch far more frames per flush than it does on the wire.
			st, ups, err := eng.QueryUpdates(s.id)
			if err != nil {
				return 0, 0, nil, err
			}
			if s.queryAfter[f] {
				out = append(out, stream.Response{V: stream.ProtocolVersion, OK: true, Possibly: st.Possibly, Stats: &st, Updates: ups})
			}
		}
		v, preds, err := eng.ClosePredicates(s.id)
		if err != nil {
			return 0, 0, nil, err
		}
		out = append(out, stream.Response{V: stream.ProtocolVersion, OK: true, Possibly: v.Possibly, Verdict: &v, Predicates: preds})
	}
	return selfCPU() - cpu0, mallocs() - m0, out, nil
}

// replayWire encodes and decodes every request of the script and every
// reply the engine produced, on a buffer. It returns the time the server
// side of the wire takes: decoding requests and encoding replies.
func replayWire(sc *script, responses []stream.Response, rep *report, ll *layerLog) (time.Duration, error) {
	type framed struct {
		session string
		append  bool
		bytes   []byte
	}
	var reqs []framed
	var buf bytes.Buffer
	var encode time.Duration
	enc := func(session string, req stream.Request) error {
		req.V = stream.ProtocolVersion
		buf.Reset()
		t0 := time.Now()
		if err := stream.EncodeRequest(&buf, req); err != nil {
			return err
		}
		encode += time.Since(t0)
		reqs = append(reqs, framed{session, req.Type == "append", append([]byte(nil), buf.Bytes()...)})
		return nil
	}
	for _, s := range sc.sessions {
		spec := s.spec
		if err := enc(s.id, stream.Request{Type: "open", Session: s.id, Spec: &spec}); err != nil {
			return 0, err
		}
		for i := range s.regs {
			if err := enc(s.id, stream.Request{Type: "register", Session: s.id, Register: &s.regs[i].reg}); err != nil {
				return 0, err
			}
		}
		for f, frame := range s.frames {
			if err := enc(s.id, stream.Request{Type: "append", Session: s.id, Events: frame}); err != nil {
				return 0, err
			}
			if s.queryAfter[f] {
				if err := enc(s.id, stream.Request{Type: "query", Session: s.id}); err != nil {
					return 0, err
				}
			}
		}
		if err := enc(s.id, stream.Request{Type: "close", Session: s.id}); err != nil {
			return 0, err
		}
	}
	var decode time.Duration
	var size int
	m0 := mallocs()
	for _, q := range reqs {
		size += len(q.bytes)
		rd := bytes.NewReader(q.bytes)
		t0 := time.Now()
		if _, err := stream.DecodeRequest(rd); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		decode += d
		if q.append {
			ll.frame("wire", "wire.decode_request", q.session, t0, d)
		}
	}
	allocs := mallocs() - m0 - uint64(len(reqs)) // the bytes.Reader per request is the replay's, not the decoder's
	var encResp, decResp time.Duration
	for _, resp := range responses {
		buf.Reset()
		t0 := time.Now()
		if err := stream.EncodeResponse(&buf, resp); err != nil {
			return 0, err
		}
		encResp += time.Since(t0)
		t0 = time.Now()
		if _, err := stream.DecodeResponse(&buf); err != nil {
			return 0, err
		}
		decResp += time.Since(t0)
	}
	n := float64(sc.events)
	rep.set("wire.encode_request_ns_per_event", float64(encode)/n, sc.events)
	rep.set("wire.decode_request_ns_per_event", float64(decode)/n, sc.events)
	rep.set("wire.decode_request_allocs_per_event", float64(allocs)/n, sc.events)
	rep.set("wire.request_bytes_per_event", float64(size)/n, sc.events)
	rep.set("wire.encode_response_ns_per_frame", float64(encResp)/float64(len(responses)), len(responses))
	rep.set("wire.decode_response_ns_per_frame", float64(decResp)/float64(len(responses)), len(responses))
	return decode + encResp, nil
}

// registration is the mux.Registration a session builds for itself: the
// one all-events predicate of a single-predicate session.
func sessionRegistration(spec stream.Spec) (mux.Registration, error) {
	ps, err := pred.Parse(spec.Pred)
	if err != nil {
		return mux.Registration{}, err
	}
	return mux.Registration{ID: "_session", Spec: ps, Involved: spec.Involved, Init: spec.Init, Retain: spec.Retain, AllEvents: true, Slice: spec.Slice}, nil
}

func muxRegistration(p muxPred) mux.Registration {
	return mux.Registration{ID: p.reg.ID, Tenant: p.reg.Tenant, Spec: p.spec, Slice: p.reg.Slice}
}

// flushAfter says whether the detectors are flushed after frame f: at the
// server's observed cadence, and wherever a query forces it.
func (sc *script) flushAfter(s *scriptSession, f int) bool {
	due := int(float64(f+1)/sc.framesPerFlush) > int(float64(f)/sc.framesPerFlush) // 1.5 frames per flush: two flushes every three frames
	return due || s.queryAfter[f] || f == len(s.frames)-1
}

func replaySessions(sc *script, rep *report, ll *layerLog) (time.Duration, error) {
	var total time.Duration
	var finalize []float64
	retained := 0
	for i := range sc.sessions {
		s := &sc.sessions[i]
		t0 := time.Now()
		sess, err := stream.NewSession(s.spec)
		if err != nil {
			return 0, err
		}
		for _, p := range s.regs {
			if err := sess.Register(muxRegistration(p)); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
		for f, frame := range s.frames {
			t0 := time.Now()
			for _, ev := range frame {
				if err := sess.Step(ev); err != nil {
					return 0, err
				}
			}
			if sc.flushAfter(s, f) {
				sess.Flush()
				sess.Updates()
			}
			d := time.Since(t0)
			total += d
			ll.frame("session", "session.step", s.id, t0, d)
			retained = max(retained, sess.RetainedEvents())
		}
		t0 = time.Now()
		if _, err := sess.Finalize(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		finalize = append(finalize, ms(d))
	}
	rep.set("session.finalize_ms_p50", median(finalize), len(finalize))
	rep.set("session.retained_events_peak", float64(retained), sc.frames)
	return total, nil
}

// replayGroups drives mux.Group directly and also returns, per session
// and frame, the events in the order the group delivered them — the
// input of the detector and slicer replays.
func replayGroups(sc *script, rep *report, ll *layerLog) (time.Duration, [][][]detect.Event, error) {
	var total time.Duration
	var steps, skipped, deliveredN, active, registered float64
	var regUS, unregUS []float64
	delivered := make([][][]detect.Event, len(sc.sessions))
	for i := range sc.sessions {
		s := &sc.sessions[i]
		var cur []detect.Event
		t0 := time.Now()
		g := mux.NewGroup(sc.procs)
		g.OnDeliver(func(ev detect.Event) { cur = append(cur, ev) })
		if s.spec.Mux {
			for _, p := range s.regs {
				if err := g.Register(muxRegistration(p)); err != nil {
					return 0, nil, err
				}
			}
		} else {
			reg, err := sessionRegistration(s.spec)
			if err != nil {
				return 0, nil, err
			}
			if err := g.Register(reg); err != nil {
				return 0, nil, err
			}
		}
		total += time.Since(t0)
		rereg := 0
		for f, frame := range s.frames {
			cur = nil
			t0 := time.Now()
			for _, ev := range frame {
				if err := g.Step(ev); err != nil {
					return 0, nil, err
				}
			}
			if sc.flushAfter(s, f) {
				g.Flush()
				g.Drain()
			}
			d := time.Since(t0)
			total += d
			ll.frame("group", "mux.group.step", s.id, t0, d)
			delivered[i] = append(delivered[i], cur)
			if s.spec.Mux && s.queryAfter[f] {
				// The control-plane pair the workload issues, timed alone.
				p := nextReregistrable(s.regs, &rereg)
				t0 := time.Now()
				if err := g.Unregister(p.reg.ID); err != nil {
					return 0, nil, err
				}
				t1 := time.Now()
				if err := g.Register(muxRegistration(p)); err != nil {
					return 0, nil, err
				}
				unregUS = append(unregUS, float64(t1.Sub(t0))/1e3)
				regUS = append(regUS, float64(time.Since(t1))/1e3)
			}
		}
		st := g.Stats()
		steps, skipped, deliveredN = steps+float64(st.Steps), skipped+float64(st.Skipped), deliveredN+float64(st.Delivered)
		active, registered = active+float64(st.Active), registered+float64(st.Registered)
	}
	rep.set("mux.steps_per_event", steps/deliveredN, int(deliveredN))
	rep.set("mux.skipped_per_event", skipped/deliveredN, int(deliveredN))
	rep.set("mux.active_share_end", 100*active/registered, int(registered))
	if len(regUS) > 0 {
		rep.set("mux.register_us", median(regUS), len(regUS))
		rep.set("mux.unregister_us", median(unregUS), len(unregUS))
	}
	return total, delivered, nil
}

func replayDelivery(sc *script, rep *report, ll *layerLog) time.Duration {
	var total time.Duration
	held, peak := 0, 0
	for i := range sc.sessions {
		s := &sc.sessions[i]
		dl := mux.NewDelivery(sc.procs, func(detect.Event) {})
		for _, frame := range s.frames {
			t0 := time.Now()
			for _, ev := range frame {
				before := dl.Holdback()
				dl.Step(ev) // the group replay already proved these frames step cleanly
				if hb := dl.Holdback(); hb > before {
					held++
					peak = max(peak, hb)
				}
			}
			d := time.Since(t0)
			total += d
			ll.frame("delivery", "mux.delivery.step", s.id, t0, d)
		}
	}
	rep.set("mux.held_share", 100*float64(held)/float64(sc.events), sc.events)
	rep.set("mux.holdback_peak", float64(peak), sc.events)
	return total
}

// projection renumbers clock components to count only one variable's
// events, as the group does before stepping a var-routed detector.
type projection struct {
	indices [][]int64 // per process: local indices of the variable's events, ascending
}

func (pj *projection) project(ev detect.Event) detect.Event {
	pj.indices[ev.Proc] = append(pj.indices[ev.Proc], ev.VC[ev.Proc])
	vc := make([]int64, len(ev.VC))
	for q, v := range ev.VC {
		ix := pj.indices[q]
		vc[q] = int64(sort.Search(len(ix), func(i int) bool { return ix[i] > v }))
	}
	ev.VC = vc
	return ev
}

// replayDetectors steps every registered detector over exactly the events
// the group would hand it, flushing at the same frames those stepped since
// their last flush. All detectors of a session are alive at once, frame
// by frame, as in the group: replaying them one after another would shrink
// the live heap and charge them several times the garbage collection.
func replayDetectors(sc *script, delivered [][][]detect.Event, rep *report, ll *layerLog) (time.Duration, error) {
	type tally struct {
		step, flush         time.Duration
		events, flushes, wp int
	}
	tallies := map[string]*tally{}
	type target struct {
		det     detect.Detector
		ta      *tally
		family  string
		route   string // "": every event, raw clocks
		spans   bool   // the first of its family keeps per-frame spans
		fed     []detect.Event
		dirty   bool
		latched bool
	}
	var total time.Duration
	for i := range sc.sessions {
		s := &sc.sessions[i]
		var targets []*target
		spanned := map[string]bool{}
		add := func(spec pred.Spec, cfg detect.Config, route string) error {
			entry, ok := detect.Lookup(spec.Family, detect.ModalityPossibly)
			if !ok {
				return fmt.Errorf("no detector for %v", spec.Family)
			}
			det, err := entry.New(spec, cfg)
			if err != nil {
				return err
			}
			family := spec.Family.String()
			ta := tallies[family]
			if ta == nil {
				ta = &tally{}
				tallies[family] = ta
			}
			targets = append(targets, &target{det: det, ta: ta, family: family, route: route, spans: !spanned[family]})
			spanned[family] = true
			return nil
		}
		if s.spec.Mux {
			for _, p := range s.regs {
				route := p.spec.Var
				if p.spec.Family == pred.InFlight {
					route = detect.InFlightVar
				}
				if err := add(p.spec, detect.Config{Procs: sc.procs}, route); err != nil {
					return 0, err
				}
			}
		} else {
			reg, err := sessionRegistration(s.spec)
			if err != nil {
				return 0, err
			}
			if err := add(reg.Spec, detect.Config{Procs: sc.procs, Involved: reg.Involved, Init: reg.Init, Retain: reg.Retain}, ""); err != nil {
				return 0, err
			}
		}
		projs := map[string]*projection{}
		for f, frame := range delivered[i] {
			// Route first, untimed: projection belongs to the group's self time.
			byRoute := map[string][]detect.Event{"": frame}
			for _, ev := range frame {
				if ev.Var == "" {
					continue
				}
				pj := projs[ev.Var]
				if pj == nil {
					pj = &projection{indices: make([][]int64, sc.procs)}
					projs[ev.Var] = pj
				}
				byRoute[ev.Var] = append(byRoute[ev.Var], pj.project(ev))
			}
			flush := sc.flushAfter(s, f)
			for _, t := range targets {
				if t.latched && t.route != "" {
					continue // the group stops stepping a routed predicate once it latches
				}
				fed := byRoute[t.route]
				if len(fed) == 0 && !(flush && t.dirty) {
					continue
				}
				t0 := time.Now()
				for _, ev := range fed {
					if err := t.det.Step(ev); err != nil {
						return 0, err
					}
				}
				t1 := time.Now()
				t.ta.step += t1.Sub(t0)
				t.ta.events += len(fed)
				if t.dirty = t.dirty || len(fed) > 0; t.dirty && flush {
					t.latched, t.dirty = t.det.Flush(), false
					t.ta.flush += time.Since(t1)
					t.ta.flushes++
				}
				t.ta.wp = max(t.ta.wp, t.det.Window())
				d := time.Since(t0)
				total += d
				if t.spans {
					ll.frame("detect", "detect."+t.family+".step", s.id, t0, d)
				}
			}
		}
	}
	for family, ta := range tallies {
		if ta.events > 0 {
			rep.set("detect."+family+".step_ns_per_event", float64(ta.step)/float64(ta.events), ta.events)
		}
		if ta.flushes > 0 {
			rep.set("detect."+family+".flush_us_per_flush", float64(ta.flush)/1e3/float64(ta.flushes), ta.flushes)
		}
		rep.set("detect."+family+".window_peak", float64(ta.wp), ta.events)
	}
	return total, nil
}

// replaySlicers maintains the incremental slice of every session that has
// one (all sixteen of a mux session side by side), with the group's truth
// routing: only events of a slicer's variable move a process's truth.
func replaySlicers(sc *script, delivered [][][]detect.Event, rep *report, ll *layerLog) (time.Duration, error) {
	var observe, compact, total time.Duration
	var observed, compacts, peak int
	var freed int64
	var offline []float64
	for i := range sc.sessions {
		s := &sc.sessions[i]
		if len(s.sliceVars) == 0 {
			continue
		}
		slicers := make([]*slicing.IncrementalSlicer, len(s.sliceVars))
		last := make([][]bool, len(s.sliceVars))
		for k := range slicers {
			slicers[k], last[k] = slicing.NewIncrementalSlicer(sc.procs, nil), make([]bool, sc.procs)
		}
		for f, frame := range delivered[i] {
			t0 := time.Now()
			for _, ev := range frame {
				for k, sl := range slicers {
					if !s.spec.Mux || ev.Var == s.sliceVars[k] {
						last[k][ev.Proc] = ev.Truth
					}
					if err := sl.Observe(ev.Proc, ev.VC, last[k][ev.Proc]); err != nil {
						return 0, err
					}
				}
			}
			t1 := time.Now()
			observe += t1.Sub(t0)
			observed += len(frame) * len(slicers)
			held := 0
			if sc.flushAfter(s, f) {
				for _, sl := range slicers {
					freed += sl.Compact()
				}
				compact += time.Since(t1)
				compacts += len(slicers)
			}
			for _, sl := range slicers {
				held += sl.Retained()
			}
			peak = max(peak, held)
			d := time.Since(t0)
			total += d
			ll.frame("slicing", "slicing.observe", s.id, t0, d)
		}
		t0 := time.Now()
		for _, sl := range slicers {
			sl.Seal()
			freed += sl.Compact()
		}
		total += time.Since(t0)
		if s.comp != nil {
			locals := map[computation.ProcID]func(computation.Event) bool{}
			name, c := s.sliceVars[0], s.comp
			for p := 0; p < sc.procs; p++ {
				locals[computation.ProcID(p)] = func(e computation.Event) bool { return c.Var(name, e.ID) != 0 }
			}
			t0 := time.Now()
			if _, err := slicing.Compute(c, slicing.ConjunctiveOracle(locals)); err != nil && !errors.Is(err, slicing.ErrEmpty) {
				return 0, err // an empty slice is an answer, not a failure
			}
			offline = append(offline, ms(time.Since(t0)))
		}
	}
	if observed > 0 {
		rep.set("slicing.observe_ns_per_event", float64(observe)/float64(observed), observed)
		rep.set("slicing.retained_peak", float64(peak), observed)
		rep.set("slicing.compacted_share", 100*float64(freed)/float64(observed), observed)
	}
	if compacts > 0 {
		rep.set("slicing.compact_us_per_call", float64(compact)/1e3/float64(compacts), compacts)
	}
	if len(offline) > 0 {
		rep.set("slicing.offline_compute_ms", median(offline), len(offline))
	}
	return total, nil
}
