package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// conns is the number of client connections, one goroutine each: the
// sandbox has two cores, and the server needs its share of them.
const conns = 2

// setupRepeats is how often a run sets up (build, inputs and oracle,
// server start, first dial) to report a median set-up time; the first
// one in a fresh checkout pays the cold build and the median drops it.
const setupRepeats = 3

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tclient is a stream.Client whose calls leave a span while tracing is
// switched on (pass A of the traced run); otherwise it adds one branch.
type tclient struct {
	cl   *stream.Client
	log  *spanLog
	on   bool
	root int // the enclosing segment or session span
}

func (t *tclient) do(name, session string, call func() error) error {
	if !t.on {
		return call()
	}
	id := t.log.begin(name, session, t.root)
	err := call()
	t.log.end(id)
	return err
}

func (t *tclient) open(id string, spec stream.Spec) error {
	return t.do("client.open", id, func() error { return t.cl.Open(id, spec) })
}

func (t *tclient) append(id string, evs []stream.Event) error {
	return t.do("client.append", id, func() error { _, err := t.cl.Append(id, evs); return err })
}

func (t *tclient) query(id string) (st stream.SessionStats, ups []mux.Update, err error) {
	err = t.do("client.query", id, func() error { st, ups, err = t.cl.QueryUpdates(id); return err })
	return st, ups, err
}

func (t *tclient) register(id string, r stream.RegisterSpec) (ups []mux.Update, err error) {
	err = t.do("client.register", id, func() error { ups, err = t.cl.RegisterPredicate(id, r); return err })
	return ups, err
}

func (t *tclient) unregister(id, predID string) error {
	return t.do("client.unregister", id, func() error { return t.cl.UnregisterPredicate(id, predID) })
}

func (t *tclient) close(id string) (v stream.Verdict, preds []mux.Update, err error) {
	err = t.do("client.close", id, func() error { v, preds, err = t.cl.ClosePredicates(id); return err })
	return v, preds, err
}

// window is one measured stretch of a run, bounded by two readings of the
// server taken from outside.
type window struct {
	events float64 // acknowledged, delivered and verified in the window
	wall   time.Duration
	cpu    time.Duration // gpdserver user+system
	alloc  float64       // gpdserver heap bytes allocated
	traced bool
}

// onlineRun is the state of one online workload run.
type onlineRun struct {
	name string
	opt  options
	rep  *report
	srv  *server
	tcs  [conns]*tclient

	closed *closedInputs // ingest_wire, mux_fanout
	plans  [conns][]*sessionPlan

	windows []window
	lat     map[string][]float64 // time-ordered latency samples in ms, warm-up excluded
	late    []float64            // open loop: how late each frame left, ms
	flushes struct{ frames, flushes float64 }
	client  struct {
		cpu    time.Duration
		events float64
	}
	gcCycles float64
}

// probe is one outside reading of the server.
type probe struct {
	at     time.Time
	cpu    time.Duration
	alloc  float64
	events float64
	gc     float64
}

func (r *onlineRun) probe() (probe, error) {
	if err := r.srv.alive(); err != nil {
		return probe{}, err
	}
	m, err := r.srv.scrape()
	if err != nil {
		return probe{}, err
	}
	cpu, err := r.srv.cpu()
	if err != nil {
		return probe{}, err
	}
	return probe{time.Now(), cpu, m["gpd_runtime_alloc_bytes_total"], m["gpd_stream_events_total"], m["gpd_runtime_gc_cycles"]}, nil
}

// runOnline sets up (several times, for a median), runs the workload
// against the child server and fills the report.
func runOnline(ctx context.Context, name string, opt options) (*report, error) {
	r := &onlineRun{name: name, opt: opt, rep: newReport(), lat: map[string][]float64{}}
	var setups []float64
	for i := 0; i < opt.setups(); i++ {
		if i > 0 {
			r.teardown()
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			r.teardown()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.teardown()
	r.rep.set("setup_s", median(setups), len(setups))

	// A stuck server must not hang the run: on timeout or interrupt the
	// child is killed, which fails every blocked client call.
	finished := make(chan struct{})
	defer close(finished)
	go func(srv *server) {
		select {
		case <-ctx.Done():
			srv.kill()
		case <-finished:
		}
	}(r.srv)

	epoch := time.Now()
	for c := range r.tcs {
		if opt.trace {
			r.tcs[c].log = newSpanLog(epoch, (c+1)*10_000_000)
		}
	}
	var err error
	if name == "verdict_scrambled" {
		err = r.runOpen()
	} else {
		err = r.runClosed()
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("timed out or interrupted: %w", err)
		}
		if dead := r.srv.alive(); dead != nil {
			return nil, dead
		}
		return nil, err
	}
	if err := r.summarize(epoch); err != nil {
		return nil, err
	}
	return r.rep, nil
}

// setup is one full set-up: build the server, generate inputs and
// oracles, start the child, dial both connections.
func (r *onlineRun) setup() error {
	bin, err := buildServer(r.opt.root)
	if err != nil {
		return err
	}
	switch r.name {
	case "verdict_scrambled":
		if err := r.planOpen(); err != nil {
			return err
		}
	default:
		if r.closed, err = prepareClosed(r.name, r.opt); err != nil {
			return err
		}
	}
	if r.srv, err = startServer(bin); err != nil {
		return err
	}
	for c := range r.tcs {
		cl, err := stream.Dial(r.srv.addr)
		if err != nil {
			return err
		}
		r.tcs[c] = &tclient{cl: cl}
	}
	return nil
}

func (r *onlineRun) teardown() {
	for c, t := range r.tcs {
		if t != nil {
			t.cl.Close()
			r.tcs[c] = nil
		}
	}
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
}

// Closed-loop workloads (ingest_wire, mux_fanout). A segment is a fixed
// number of events per connection, cut into checkpoints: a run of append
// frames followed by one query, which flushes the session synchronously
// and returns its counters and verdict. Both connections start a segment
// together, and the server is read between segments while it is idle, so
// CPU and allocation deltas belong to the segment alone.
type closedInputs struct {
	mux         bool
	procs       int
	frameEvents int
	framesPerCP int // frames per checkpoint
	cpsPerSeg   int // checkpoints per segment and connection
	reregEvery  int // mux: re-register one predicate every this many checkpoints
	layerFrames int // frames the traced run replays through each layer in process
	next        func(*source)
	seeds       [conns]int64
	preds       []muxPred
	expect      [conns]map[string]bool // predicate id -> oracle verdict ("" for the session predicate)
}

// oraclePrefix is how many events of each closed-loop stream are rebuilt
// into a computation for gpd.Detect. The predicates are chosen so that
// their verdict on any longer prefix equals their verdict on this one
// (see README, "Correctness"), which is what lets an unbounded stream
// have an exact oracle.
const oraclePrefix = 1024

func prepareClosed(name string, opt options) (*closedInputs, error) {
	in := &closedInputs{next: ingestNext}
	switch name {
	case "ingest_wire":
		in.procs, in.frameEvents, in.framesPerCP, in.cpsPerSeg, in.layerFrames = ingestProcs, 64, 16, 64, 512
	case "mux_fanout":
		in.mux = true
		// 1024 detectors flush on nearly every frame, so the server manages
		// a few thousand events a second: segments and replays are short.
		in.procs, in.frameEvents, in.framesPerCP, in.cpsPerSeg, in.reregEvery, in.layerFrames = muxProcs, 32, 4, 16, 16, 64
		in.preds = muxPredicates(muxPreds)
		in.next = muxNext
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	in.cpsPerSeg = max(2, int(float64(in.cpsPerSeg)*opt.scale))
	for c := range in.seeds {
		in.seeds[c] = opt.seed*conns + int64(c)
		evs, deps := in.source(c).frame(oraclePrefix)
		comp, err := computationOf(in.procs, evs, deps, "x")
		if err != nil {
			return nil, err
		}
		in.expect[c] = map[string]bool{}
		if !in.mux {
			ps, err := gpd.ParseSpec(ingestPred)
			if err != nil {
				return nil, err
			}
			rep, err := gpd.Detect(comp, ps)
			if err != nil {
				return nil, err
			}
			in.expect[c][""] = rep.Holds
			continue
		}
		byText := map[string]bool{} // tenants share predicate texts; decide each once
		for _, p := range in.preds {
			holds, done := byText[p.reg.Pred]
			if !done {
				rep, err := gpd.Detect(comp, p.spec)
				if err != nil {
					return nil, fmt.Errorf("oracle for %s: %w", p.reg.Pred, err)
				}
				holds = rep.Holds
				byText[p.reg.Pred] = holds
			}
			if holds != p.latches {
				return nil, fmt.Errorf("workload design broken: %s decides %v on the oracle prefix", p.reg.Pred, holds)
			}
			in.expect[c][p.reg.ID] = holds
		}
	}
	if corruptOracle { // tests only: the run must catch this
		for c := range in.expect {
			for id := range in.expect[c] {
				in.expect[c][id] = !in.expect[c][id]
				break
			}
		}
	}
	return in, nil
}

// source is connection c's event stream from its beginning.
func (in *closedInputs) source(c int) *source {
	return newSource(in.seeds[c], in.procs, in.next)
}

// corruptOracle flips one expected verdict per connection; the smoke test
// sets it to prove a wrong verdict is caught and counted.
var corruptOracle bool

// closedConn is one connection's side of a closed-loop run.
type closedConn struct {
	in      *closedInputs
	t       *tclient
	id      string
	src     *source
	expect  map[string]bool
	latched map[string]bool
	rep     *report // this goroutine's own tally, merged at the end

	sent, frames, cps int64
	rereg             int // cursor over re-registrable predicates
	last              stream.SessionStats
	lat               map[string][]float64 // this segment's samples
}

func (r *onlineRun) runClosed() error {
	in := r.closed
	cs := make([]*closedConn, conns)
	for c := range cs {
		cs[c] = &closedConn{
			in: in, t: r.tcs[c], id: fmt.Sprintf("%s-%d-%d", r.name, r.opt.seed, c),
			src: in.source(c), expect: in.expect[c],
			latched: map[string]bool{}, rep: newReport(),
		}
		if err := cs[c].open(); err != nil {
			return err
		}
	}
	perSeg := float64(conns * in.cpsPerSeg * in.framesPerCP * in.frameEvents)
	start := time.Now()
	clientCPU := selfCPU()
	var first probe
	for seg := 0; ; seg++ {
		// Segment 0 warms up caches, the detector windows and the server's
		// heap; it is not measured.
		measured := seg > 0
		if measured && seg >= 1+minSegments && time.Since(start).Seconds() >= r.opt.seconds {
			break
		}
		traced := r.opt.trace && seg%2 == 0 && measured
		before, err := r.probe()
		if err != nil {
			return err
		}
		if seg == 1 {
			first, clientCPU = before, selfCPU()
		}
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for c := range cs {
			cs[c].t.on = traced
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = cs[c].segment()
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		after, err := r.probe()
		if err != nil {
			return err
		}
		if !measured {
			continue
		}
		r.windows = append(r.windows, window{
			events: perSeg, wall: after.at.Sub(before.at), cpu: after.cpu - before.cpu,
			alloc: after.alloc - before.alloc, traced: traced,
		})
		for _, c := range cs {
			for k, v := range c.lat {
				key := k
				if traced {
					key = "traced." + k
				}
				r.lat[key] = append(r.lat[key], v...)
			}
		}
		r.gcCycles = after.gc - first.gc
	}
	r.client.cpu = selfCPU() - clientCPU
	r.client.events = perSeg * float64(len(r.windows))
	for _, c := range cs {
		r.flushes.frames += float64(c.frames)
		r.flushes.flushes += float64(c.last.Flushes)
		if err := c.finish(); err != nil {
			return err
		}
		r.lat["close"] = append(r.lat["close"], c.lat["close"]...)
		r.rep.merge(c.rep)
	}
	return nil
}

// minSegments is the fewest measured segments a closed-loop run accepts,
// however slow the machine; the sizes are tuned so that runSeconds holds
// at least maxSegments of them here.
const minSegments = 6

func (c *closedConn) open() error {
	c.rep.attempted++
	if !c.in.mux {
		return c.t.open(c.id, stream.Spec{Pred: ingestPred, Procs: c.in.procs})
	}
	if err := c.t.open(c.id, stream.Spec{Mux: true, Procs: c.in.procs}); err != nil {
		return err
	}
	for _, p := range c.in.preds {
		c.rep.attempted++
		ups, err := c.t.register(c.id, p.reg)
		if err != nil {
			return fmt.Errorf("session %s: register %s: %w", c.id, p.reg.ID, err)
		}
		c.updates(ups)
	}
	return nil
}

// segment drives one segment's checkpoints on this connection.
func (c *closedConn) segment() error {
	c.lat = map[string][]float64{}
	if c.t.on {
		c.t.root = c.t.log.begin("client.segment", c.id, 0)
		defer func() { c.t.log.end(c.t.root) }()
	}
	for cp := 0; cp < c.in.cpsPerSeg; cp++ {
		var lastSent time.Time
		for f := 0; f < c.in.framesPerCP; f++ {
			evs, _ := c.src.frame(c.in.frameEvents)
			lastSent = time.Now()
			if err := c.t.append(c.id, evs); err != nil {
				return fmt.Errorf("session %s: append: %w", c.id, err)
			}
			c.lat["append"] = append(c.lat["append"], ms(time.Since(lastSent)))
			c.sent += int64(len(evs))
			c.frames++
			c.rep.attempted++
		}
		c.cps++
		if c.in.mux && c.cps%int64(c.in.reregEvery) == 0 {
			if err := c.reregister(); err != nil {
				return err
			}
		}
		st, ups, err := c.t.query(c.id)
		if err != nil {
			return fmt.Errorf("session %s: query: %w", c.id, err)
		}
		// From handing over the last event to holding the verdict that
		// covers it.
		c.lat["verdict"] = append(c.lat["verdict"], ms(time.Since(lastSent)))
		c.rep.attempted++
		c.last = st
		c.updates(ups)
		wantAny := len(c.latched) > 0 || c.expect[""]
		switch {
		case st.Error != "":
			c.rep.fail("session %s: server-side error: %s", c.id, st.Error)
		case st.Delivered != c.sent || st.Holdback != 0:
			c.rep.fail("session %s: sent %d events, delivered %d, holdback %d", c.id, c.sent, st.Delivered, st.Holdback)
		case st.Possibly != wantAny:
			c.rep.fail("session %s: query says possibly=%v after %d events, oracle says %v", c.id, st.Possibly, c.sent, wantAny)
		}
	}
	return nil
}

// reregister detaches one predicate and attaches it again, so the
// relevance index is written while it is being read.
func (c *closedConn) reregister() error {
	p := nextReregistrable(c.in.preds, &c.rereg)
	c.rep.attempted += 2
	if err := c.t.unregister(c.id, p.reg.ID); err != nil {
		return fmt.Errorf("session %s: unregister %s: %w", c.id, p.reg.ID, err)
	}
	t0 := time.Now()
	ups, err := c.t.register(c.id, p.reg)
	if err != nil {
		return fmt.Errorf("session %s: register %s: %w", c.id, p.reg.ID, err)
	}
	c.lat["register"] = append(c.lat["register"], ms(time.Since(t0)))
	c.updates(ups)
	return nil
}

// updates checks drained verdict updates against the oracle.
func (c *closedConn) updates(ups []mux.Update) {
	for _, u := range ups {
		switch {
		case u.Err != "":
			c.rep.fail("session %s: predicate %s failed server-side: %s", c.id, u.ID, u.Err)
		case u.Possibly && !c.expect[u.ID]:
			c.rep.fail("session %s: predicate %s latched, oracle says it never does", c.id, u.ID)
		case u.Possibly:
			c.latched[u.ID] = true
		}
	}
}

// finish closes the session and checks the final verdict and, for a mux
// session, every entry of the close fan-out.
func (c *closedConn) finish() error {
	c.t.on = false
	c.rep.attempted++
	t0 := time.Now()
	v, preds, err := c.t.close(c.id)
	if err != nil {
		return fmt.Errorf("session %s: close: %w", c.id, err)
	}
	c.lat = map[string][]float64{"close": {ms(time.Since(t0))}}
	if !c.in.mux {
		if v.Possibly != c.expect[""] {
			c.rep.fail("session %s: close says possibly=%v, oracle says %v", c.id, v.Possibly, c.expect[""])
		}
		return nil
	}
	got := make(map[string]mux.Update, len(preds))
	for _, u := range preds {
		got[u.ID] = u
	}
	for _, p := range c.in.preds {
		c.rep.attempted++
		u, ok := got[p.reg.ID]
		switch {
		case !ok:
			c.rep.fail("session %s: predicate %s missing from the close fan-out", c.id, p.reg.ID)
		case u.Err != "":
			c.rep.fail("session %s: predicate %s failed server-side: %s", c.id, p.reg.ID, u.Err)
		case u.Possibly != c.expect[p.reg.ID]:
			c.rep.fail("session %s: predicate %s (%s) closes possibly=%v, oracle says %v", c.id, p.reg.ID, p.reg.Pred, u.Possibly, c.expect[p.reg.ID])
		}
	}
	return nil
}

// summarize turns the run's windows and samples into metrics: the
// end-to-end ones always, and for a traced run the outside view of each
// layer plus the in-process layer replays.
func (r *onlineRun) summarize(epoch time.Time) error {
	rep := r.rep
	over := func(traced bool, f func(w window) float64) []float64 {
		var xs []float64
		for _, w := range r.windows {
			if w.traced == traced && w.events > 0 {
				xs = append(xs, f(w))
			}
		}
		return xs
	}
	eps := func(w window) float64 { return w.events / w.wall.Seconds() }
	cpuPer := func(w window) float64 { return float64(w.cpu) / float64(time.Microsecond) / w.events }
	allocPer := func(w window) float64 { return w.alloc / w.events }
	plain := over(false, eps)
	if len(plain) == 0 {
		return errors.New("no measured window")
	}
	// The per-window series goes to the log: it shows whether a run was
	// steady or sat through a slow stretch of the machine.
	fmt.Fprintf(r.opt.log, "%s: events/s per window %.0f\n%s: cpu us/event per window %.2f\n", r.name, over(false, eps), r.name, over(false, cpuPer))
	rep.set("events_per_s", median(plain), len(plain))
	rep.set("cpu_us_per_event", median(over(false, cpuPer)), len(plain))
	rep.set("alloc_bytes_per_event", median(over(false, allocPer)), len(plain))
	v := r.lat["verdict"]
	if len(v) == 0 {
		return errors.New("no verdict latency sample")
	}
	rep.set("verdict_ms_p50", segmentedQuantile(v, 0.50), len(v))
	rep.set("verdict_ms_p90", segmentedQuantile(v, 0.90), len(v))
	if !r.opt.trace {
		return nil
	}

	// Pass A: the load generator's own view and the server from outside.
	sample := func(name, key string, q float64) {
		if xs := r.lat[key]; len(xs) > 0 {
			rep.set(name, segmentedQuantile(xs, q), len(xs))
		}
	}
	sample("client.append_ms_p50", "append", 0.50)
	sample("client.append_ms_p99", "append", 0.99)
	sample("client.verdict_ms_p99", "verdict", 0.99)
	sample("client.close_ms_p50", "close", 0.50)
	sample("client.register_ms_p50", "register", 0.50)
	if len(r.late) > 0 {
		rep.set("client.max_late_ms", quantile(r.late, 1), len(r.late))
		rep.set("client.late_share", 100*lateShare(r.late), len(r.late))
	}
	if r.client.events > 0 {
		rep.set("client.cpu_us_per_event", float64(r.client.cpu)/float64(time.Microsecond)/r.client.events, 1)
	}
	// Tracing overhead: a closed loop loses throughput in its traced
	// segments. The paced open loop cannot, so there it is the measured
	// cost of recording a span as a share of the calls the spans time.
	if traced := over(true, eps); len(traced) > 0 {
		rep.set("client.trace_overhead_share", 100*(1-median(traced)/median(plain)), len(traced))
	} else {
		var calls time.Duration
		n := 0
		for _, t := range r.tcs {
			for _, sp := range t.log.spans {
				if sp.Parent != 0 { // a client call, not the session span around it
					calls += time.Duration(sp.End - sp.Start)
					n++
				}
			}
		}
		if calls > 0 {
			rep.set("client.trace_overhead_share", 100*float64(time.Duration(n)*spanCost())/float64(calls), n)
		}
	}
	if r.flushes.flushes > 0 {
		rep.set("engine.frames_per_flush", r.flushes.frames/r.flushes.flushes, int(r.flushes.flushes))
	}
	rep.set("server.gc_cycles", r.gcCycles, 1)
	m, err := r.srv.scrape()
	if err != nil {
		return err
	}
	rep.set("server.sched_latency_p99_us", m["gpd_runtime_sched_latency_p99_nanos"]/1e3, 1)
	snap, err := r.srv.snapshot()
	if err != nil {
		return err
	}
	var highWater, dropped float64
	for _, sh := range snap.Shards {
		highWater = max(highWater, float64(sh.QueueHighWater))
		dropped += float64(sh.DroppedFrames)
	}
	rep.set("engine.queue_high_water", highWater, len(snap.Shards))
	rep.set("engine.dropped_frames", dropped, len(snap.Shards))
	if bytesIn, err := r.srv.bytesIn(); err != nil {
		return err
	} else if snap.Events > 0 {
		rep.set("server.bytes_in_per_event", float64(bytesIn)/float64(snap.Events), 1)
	}
	maxRSSKB, err := r.srv.stop() // the replays below must have the machine to themselves
	if err != nil {
		return err
	}
	rep.set("server.rss_peak_mb", float64(maxRSSKB)/1024, 1)

	// Pass B: the same frames through each layer's public API, in process.
	layers := newSpanLog(epoch, 0)
	if err := r.replayLayers(layers); err != nil {
		return err
	}
	logs := []*spanLog{layers}
	for _, t := range r.tcs {
		logs = append(logs, t.log)
	}
	return writeTrace(r.opt.outDir, r.name, r.opt.seed, rep, logs...)
}
