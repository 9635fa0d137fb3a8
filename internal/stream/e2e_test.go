package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// e2eJob is one monitored application: a random computation, its session
// spec, and the offline-oracle answers for both modalities.
type e2eJob struct {
	id       string
	spec     Spec
	events   []Event
	wantPos  bool
	wantDef  bool
	checkDef bool
}

// sumEqPred and levelsPred spell the two parameterised test predicates
// over the default variable in the canonical grammar.
func sumEqPred(k int64) string { return fmt.Sprintf("sum(%s) == %d", varName, k) }

func levelsPred(levels []int) string {
	return pred.Spec{Family: pred.Levels, Var: varName, Levels: levels}.String()
}

// makeJobs builds n jobs cycling through the four streaming predicate
// families, computing oracle verdicts with the offline detectors.
func makeJobs(t *testing.T, n int) []e2eJob {
	t.Helper()
	jobs := make([]e2eJob, 0, n)
	for i := 0; i < n; i++ {
		seed := int64(i)
		c := randomComputation(seed)
		np := c.NumProcs()
		j := e2eJob{id: fmt.Sprintf("app-%03d", i), checkDef: true}
		switch i % 4 {
		case 0: // conjunctive
			truth := gen.BoolTables(seed, c, 0.4)
			for p := range truth {
				truth[p][0] = false
			}
			locals := make(map[computation.ProcID]conjunctive.LocalPredicate)
			for p := range truth {
				row := truth[p]
				locals[computation.ProcID(p)] = func(e computation.Event) bool {
					return e.Index < len(row) && row[e.Index]
				}
			}
			j.spec = Spec{Pred: "all(x)", Procs: np, Retain: true}
			j.events = tableTrace(c, truth)
			j.wantPos = conjunctive.DetectTraced(c, locals, nil).Found
			j.wantDef = conjunctive.DetectDefinitelyTraced(c, locals, nil)
		case 1: // sum equality
			gen.UnitStepVar(seed, c, varName)
			events, init := SumTrace(c, varName)
			lo, hi := relsum.SumRange(c, varName)
			k := lo + seed%(hi-lo+2)
			j.spec = Spec{Pred: sumEqPred(k), Procs: np, Init: init, Retain: true}
			j.events = events
			var err error
			if j.wantPos, _, _, _, err = relsum.PossiblyPar(c, varName, relsum.Eq, k, 1, nil); err != nil {
				t.Fatal(err)
			}
			if j.wantDef, err = relsum.DefinitelyPar(c, varName, relsum.Eq, k, 1, nil); err != nil {
				t.Fatal(err)
			}
		case 2: // symmetric
			gen.BoolVar(seed, c, varName, 0.4)
			events, init := BoolTrace(c, varName)
			sp := symmetric.NotAllEqual(np)
			truth := func(e computation.Event) bool { return c.Var(varName, e.ID) != 0 }
			j.spec = Spec{Pred: levelsPred(sp.Levels), Procs: np, Init: init, Retain: true}
			j.events = events
			var err error
			if j.wantPos, _, _, _, err = symmetric.PossiblyPar(c, sp, truth, 1, nil); err != nil {
				t.Fatal(err)
			}
			if j.wantDef, err = symmetric.DefinitelyPar(c, sp, truth, 1, nil); err != nil {
				t.Fatal(err)
			}
		case 3: // channel occupancy
			k := 1 + seed%2
			j.spec = Spec{Pred: fmt.Sprintf("inflight >= %d", k), Procs: np, Retain: true}
			j.events = InFlightTrace(c)
			min, max := relsum.InFlightRange(c)
			j.wantPos = min >= k || max >= k
			var err error
			if j.wantDef, err = relsum.DefinitelyWeightedPar(c, 0, relsum.InFlightWeight(c), relsum.Ge, k, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// serveLoopback starts an engine behind a loopback server and dials one
// client; everything is torn down with the test.
func serveLoopback(t *testing.T, cfg Config, opts ...ServerOption) (*Server, *Client) {
	t.Helper()
	eng := NewEngine(cfg)
	t.Cleanup(eng.Shutdown)
	srv, err := ListenAndServe("127.0.0.1:0", eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// TestServe64ConcurrentSessions is the acceptance e2e: 64 sessions
// streamed concurrently over real TCP connections, each verdict checked
// against the offline oracles for its predicate family.
func TestServe64ConcurrentSessions(t *testing.T) {
	srv, _ := serveLoopback(t, Config{Shards: 4, QueueLen: 64, BatchSize: 16})
	jobs := makeJobs(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(j e2eJob, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Open(j.id, j.spec); err != nil {
				errs <- fmt.Errorf("%s: open: %w", j.id, err)
				return
			}
			evs := append([]Event(nil), j.events...)
			rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
			for len(evs) > 0 {
				n := 1 + rng.Intn(4)
				if n > len(evs) {
					n = len(evs)
				}
				if _, err := cl.Append(j.id, evs[:n]); err != nil {
					errs <- fmt.Errorf("%s: append: %w", j.id, err)
					return
				}
				evs = evs[n:]
			}
			verdict, err := cl.CloseSession(j.id)
			if err != nil {
				errs <- fmt.Errorf("%s: close: %w", j.id, err)
				return
			}
			if verdict.Possibly != j.wantPos {
				errs <- fmt.Errorf("%s (%s): Possibly=%v, oracle=%v",
					j.id, j.spec.Pred, verdict.Possibly, j.wantPos)
			}
			if j.checkDef && (!verdict.DefinitelyKnown || verdict.Definitely != j.wantDef) {
				errs <- fmt.Errorf("%s (%s): Definitely=%v (known=%v), oracle=%v",
					j.id, j.spec.Pred, verdict.Definitely, verdict.DefinitelyKnown, j.wantDef)
			}
		}(jobs[i], int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := srv.Engine().Snapshot()
	if snap.Detections == 0 {
		t.Error("no detections recorded across 64 sessions")
	}
	if len(snap.Sessions) != 0 {
		t.Errorf("%d sessions still registered after close", len(snap.Sessions))
	}
}

// TestServerRejectsGarbage sends hostile bytes and wrong-version frames;
// the server must answer with an error frame (when it can) and drop the
// connection without disturbing other clients.
func TestServerRejectsGarbage(t *testing.T) {
	srv, cl := serveLoopback(t, Config{Shards: 1})
	t.Run("bad version", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := EncodeRequest(conn, Request{V: 42, Type: "query", Session: "x"}); err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("want error reply, got %+v", resp)
		}
	})
	t.Run("hostile length", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server replies with an error frame or just closes; it must
		// not hang and the listener must survive.
		DecodeResponse(conn)
	})
	// A healthy client still works afterwards.
	if err := cl.Open("ok", Spec{Pred: "all(x)", Procs: 1}); err != nil {
		t.Fatalf("healthy client after garbage: %v", err)
	}
}

// TestServerIdleTimeout checks that a silent connection is disconnected
// while an active one keeps its session.
func TestServerIdleTimeout(t *testing.T) {
	srv, cl := serveLoopback(t, Config{Shards: 1}, WithServerIdleTimeout(50*time.Millisecond))
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// Sessions outlive connections: open, let the connection idle out,
	// reconnect, and continue the same session.
	if err := cl.Open("s", Spec{Pred: "all(x)", Procs: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)

	// The stalled raw connection should be closed by now: a read returns.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection still open after idle timeout")
	}

	cl.Close()
	cl2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Append("s", []Event{{Proc: 0, VC: []int64{1}, Truth: true}}); err != nil {
		t.Fatalf("resume session on a new connection: %v", err)
	}
	if verdict, err := cl2.CloseSession("s"); err != nil || !verdict.Possibly {
		t.Fatalf("verdict %+v, err %v", verdict, err)
	}
}

// TestServeOneSessionManyConnections is the shape the onlinemonitor
// example relies on: one session shared by one connection per process,
// each appending its own process's events one by one in local order.
// Arrival across processes is scrambled — concurrently on even seeds,
// whole processes in reverse order (receivers before their senders) on
// odd ones — and the close verdict must equal gpd.Detect on the sealed
// computation under both modalities.
func TestServeOneSessionManyConnections(t *testing.T) {
	srv, ctl := serveLoopback(t, Config{Shards: 2})
	ps, err := gpd.ParseSpec("all(" + varName + ")")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 12; seed++ {
		c := gen.Random(gen.Params{Seed: seed, Procs: 4, Events: 6, MsgFrac: 1})
		// Truth density cycles sparse, even, dense so the seeds cover
		// every verdict pair; sessions take initial states as false.
		rng := rand.New(rand.NewSource(seed))
		density := []float64{0.2, 0.5, 0.95}[seed%3]
		for id := 0; id < c.NumEvents(); id++ {
			e := c.Event(computation.EventID(id))
			c.SetVar(varName, e.ID, 0)
			if !e.IsInitial() && rng.Float64() < density {
				c.SetVar(varName, e.ID, 1)
			}
		}
		events, _ := BoolTrace(c, varName)
		id := fmt.Sprintf("shared-%d", seed)
		if err := ctl.Open(id, Spec{Pred: ps.String(), Procs: c.NumProcs(), Retain: true}); err != nil {
			t.Fatal(err)
		}
		stream := func(p int) {
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for _, ev := range events { // topological, so local order per process
				if ev.Proc != p {
					continue
				}
				if _, err := cl.Append(id, []Event{ev}); err != nil {
					t.Errorf("seed %d process %d: append: %v", seed, p, err)
					return
				}
			}
		}
		var wg sync.WaitGroup
		for p := c.NumProcs() - 1; p >= 0; p-- {
			if seed%2 == 1 {
				stream(p)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream(p)
			}()
		}
		wg.Wait()

		st, err := ctl.Query(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered != int64(len(events)) || st.Holdback != 0 {
			t.Errorf("seed %d: delivered %d of %d events, %d held back", seed, st.Delivered, len(events), st.Holdback)
		}
		verdict, err := ctl.CloseSession(id)
		if err != nil {
			t.Fatal(err)
		}
		wantPos, err := gpd.Detect(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		wantDef, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
		if err != nil {
			t.Fatal(err)
		}
		if verdict.Possibly != wantPos.Holds || !verdict.DefinitelyKnown || verdict.Definitely != wantDef.Holds {
			t.Errorf("seed %d: verdict %+v, gpd.Detect possibly=%v definitely=%v",
				seed, verdict, wantPos.Holds, wantDef.Holds)
		}
	}
}

// TestPipelinedAppends writes 256 append frames in one Write before
// reading any reply, so the serve goroutine decodes each frame into the
// buffer the previous one came from while the shard may still be
// applying — or, processes arriving in reverse order (receivers before
// their senders), holding back — the earlier frames' events. The session
// must deliver every event and close on gpd.Detect's verdict.
func TestPipelinedAppends(t *testing.T) {
	srv, ctl := serveLoopback(t, Config{Shards: 2})
	ps, err := gpd.ParseSpec("all(" + varName + ")")
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Random(gen.Params{Seed: 5, Procs: 4, Events: 64, MsgFrac: 0.5})
	rng := rand.New(rand.NewSource(5))
	for id := 0; id < c.NumEvents(); id++ {
		e := c.Event(computation.EventID(id))
		c.SetVar(varName, e.ID, 0)
		if !e.IsInitial() && rng.Float64() < 0.9 {
			c.SetVar(varName, e.ID, 1)
		}
	}
	events, _ := BoolTrace(c, varName)
	const id = "pipelined"
	if err := ctl.Open(id, Spec{Pred: ps.String(), Procs: c.NumProcs(), Retain: true}); err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	for p := c.NumProcs() - 1; p >= 0; p-- {
		for _, ev := range events {
			if ev.Proc == p {
				if err := EncodeRequest(&frames, Request{V: ProtocolVersion, Type: "append", Session: id, Events: []Event{ev}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	replies := bufio.NewReader(conn)
	for i := range events {
		if resp, err := DecodeResponse(replies); err != nil || !resp.OK {
			t.Fatalf("reply %d: %+v, %v", i, resp, err)
		}
	}

	st, err := ctl.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != int64(len(events)) || st.Holdback != 0 {
		t.Errorf("delivered %d of %d events, %d held back", st.Delivered, len(events), st.Holdback)
	}
	verdict, err := ctl.CloseSession(id)
	if err != nil {
		t.Fatal(err)
	}
	wantPos, err := gpd.Detect(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	wantDef, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Possibly != wantPos.Holds || !verdict.DefinitelyKnown || verdict.Definitely != wantDef.Holds {
		t.Errorf("verdict %+v, gpd.Detect possibly=%v definitely=%v", verdict, wantPos.Holds, wantDef.Holds)
	}
}

// TestServerLifecycle walks one connection through the transport's
// edges: the append reply piggybacks the latched verdict, a dropped
// connection leaves a disconnect flight record and its lifecycle in the
// log, Close is idempotent and unblocks a client waiting on it, and
// dialing the closed port fails.
func TestServerLifecycle(t *testing.T) {
	fl := obs.NewFlight(16)
	var logs bytes.Buffer // read only after Close has joined the serve goroutines
	srv, cl := serveLoopback(t, Config{Shards: 1}, WithServerFlight(fl),
		WithServerLogger(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))))
	if err := cl.Open("s", Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("s", []Event{{Proc: 0, VC: []int64{1, 0}, Truth: true}, {Proc: 1, VC: []int64{0, 1}, Truth: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("s"); err != nil { // synchronous flush: the verdict is latched now
		t.Fatal(err)
	}
	if possibly, err := cl.Append("s", []Event{{Proc: 0, VC: []int64{2, 0}}}); err != nil || !possibly {
		t.Fatalf("append reply after detection: possibly=%v, err %v", possibly, err)
	}
	// A clean hang-up: the peer stops writing but keeps reading, so any
	// byte the server sent in answer to the EOF would arrive here.
	if err := cl.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	cl.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if b, err := io.ReadAll(cl.conn); err != nil || len(b) != 0 {
		t.Fatalf("server answered a hang-up with %d bytes (err %v): %q", len(b), err, b)
	}
	cl.Close()
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		if recs := fl.Snapshot(); len(recs) > 0 && recs[len(recs)-1].Stage == obs.StageDisconnect {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no disconnect record; ring: %+v", fl.Snapshot())
		}
	}

	waiting, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer waiting.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, want := range []string{"connection accepted", "connection closed"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logs.String())
		}
	}
	waiting.conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := waiting.Query("s"); err == nil {
		t.Fatal("query on a closed server succeeded")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client hung after server close")
	}
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("dialing a closed server must fail")
	}
}

// waitGoroutines fails the test unless the process is back at (or below)
// its starting goroutine count within a few seconds.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestShutdownReturnsGoroutines is the dynamic form of "every goroutine
// is tied to a shutdown path": after Server.Close and Engine.Shutdown the
// process is back at the goroutine count it started with, whoever
// launched them (interface and function-value calls included). The
// connections cover the ways a peer can be left: closed by the client,
// abandoned mid-frame, idle, and holding live plain and mux sessions.
func TestShutdownReturnsGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	eng := NewEngine(Config{Shards: 2})
	srv, err := ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *Client {
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	events := []Event{{Proc: 0, VC: []int64{1, 0}, Truth: true, Var: "x"}, {Proc: 1, VC: []int64{0, 1}, Truth: true, Var: "x"}}

	gone := dial()
	if err := gone.Open("gone", Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	gone.Close() // its session stays open on the engine

	plain := dial()
	if err := plain.Open("s", Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Append("s", events); err != nil {
		t.Fatal(err)
	}

	muxed := dial()
	if err := muxed.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RegisterSpec{{ID: "c", Pred: "all(x)"}, {ID: "s", Pred: "sum(x) >= 1"}} {
		if _, err := muxed.RegisterPredicate("m", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := muxed.Append("m", events); err != nil {
		t.Fatal(err)
	}

	dial() // idle: never sends a byte
	abandoned := dial()
	if _, err := abandoned.conn.Write([]byte{0, 0, 0, 64, '{'}); err != nil { // a 64-byte frame that stops after one byte
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	waitGoroutines(t, start)
}

// TestServerRejectsBadSpecs sends the specs that used to open (or
// register) fine and then silently never latch: an involved set naming
// a process twice or outside the session, on both routes that carry
// one, and a legacy frame spelling its predicate as a numeric kind.
// Each must come back ok:false with nothing opened or registered.
func TestServerRejectsBadSpecs(t *testing.T) {
	srv, cl := serveLoopback(t, Config{Shards: 1})
	if err := cl.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		involved []int
		want     string
	}{
		{[]int{0, 0}, "listed twice"},
		{[]int{0, 7}, "out of range"},
		{[]int{-1}, "out of range"},
	} {
		err := cl.Open("s", Spec{Pred: "all(x)", Procs: 2, Involved: tc.involved})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("open with involved %v: got %v, want an error saying %q", tc.involved, err, tc.want)
		}
		_, err = cl.RegisterPredicate("m", RegisterSpec{ID: "p", Pred: "all(x)", Involved: tc.involved})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("register with involved %v: got %v, want an error saying %q", tc.involved, err, tc.want)
		}
	}
	// A well-formed subset still opens, registers and latches.
	if err := cl.Open("s", Spec{Pred: "all(x)", Procs: 2, Involved: []int{1}}); err != nil {
		t.Fatalf("open with involved [1]: %v", err)
	}
	if _, err := cl.Append("s", []Event{{Proc: 1, VC: []int64{0, 1}, Truth: true}}); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.CloseSession("s"); err != nil || !v.Possibly {
		t.Errorf("involved [1] with p1 true: verdict %+v, err %v", v, err)
	}
	if _, err := cl.RegisterPredicate("m", RegisterSpec{ID: "p", Pred: "all(x)", Involved: []int{1}}); err != nil {
		t.Errorf("register with involved [1]: %v", err)
	}

	// The legacy frame goes out raw: the Spec type can no longer spell it.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, []byte(legacyKindFrame)); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, `"pred"`) || !strings.Contains(resp.Error, `"all(x)"`) {
		t.Errorf("legacy kind frame: got %+v, want ok:false naming pred with an example", resp)
	}
	if _, err := cl.Query("legacy"); err == nil {
		t.Error("legacy kind frame opened a session")
	}
}

// TestServerRejectsBadInit sends initial values no core can start from —
// more of them than processes, and a truth value outside {0,1} — down
// both routes that carry an init. Truncating the first or starting the
// true-count at the second would be a silent wrong verdict; each must
// come back ok:false, and a well-formed init still latches.
func TestServerRejectsBadInit(t *testing.T) {
	_, cl := serveLoopback(t, Config{Shards: 1})
	if err := cl.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pred string
		init []int64
		want string
	}{
		{"sum(x) >= 1", []int64{0, 0, 5}, "3 initial values for 2 processes"},
		{"count(x) >= 1", []int64{0, 0, 1}, "3 initial values for 2 processes"},
		{"count(x) >= 1", []int64{2}, "not a 0/1 truth value"},
	} {
		err := cl.Open("s", Spec{Pred: tc.pred, Procs: 2, Init: tc.init})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("open %s with init %v: got %v, want an error saying %q", tc.pred, tc.init, err, tc.want)
		}
		_, err = cl.RegisterPredicate("m", RegisterSpec{ID: "p", Pred: tc.pred, Init: tc.init})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("register %s with init %v: got %v, want an error saying %q", tc.pred, tc.init, err, tc.want)
		}
	}
	if err := cl.Open("s", Spec{Pred: "count(x) >= 1", Procs: 2, Init: []int64{1}}); err != nil {
		t.Fatalf("open with init [1]: %v", err)
	}
	if v, err := cl.CloseSession("s"); err != nil || !v.Possibly {
		t.Errorf("count(x) >= 1 from init [1]: verdict %+v, err %v", v, err)
	}
	ups, err := cl.RegisterPredicate("m", RegisterSpec{ID: "p", Pred: "count(x) >= 1", Init: []int64{1}})
	if err != nil || len(ups) != 1 || !ups[0].Possibly {
		t.Errorf("register count(x) >= 1 with init [1]: updates %+v, err %v", ups, err)
	}
}

// TestServerRejectsHugeStep streams a variable that jumps by more than
// the closure kernels can represent (a cuttable "unbounded" arc at
// 2^61, a wrapping difference beyond) into a plain and a multiplexed
// session. The only sound answer is none: the plain session fails
// sticky and closes ok:false, the registered predicate reports an
// error — neither ever a verdict — while a predicate over another
// variable of the same mux session is unaffected.
func TestServerRejectsHugeStep(t *testing.T) {
	_, cl := serveLoopback(t, Config{Shards: 1})
	hostile := []Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Val: -1 << 62},
		{Proc: 1, VC: []int64{1, 1}, Var: "x", Val: 1 << 62},
		{Proc: 0, VC: []int64{2, 0}, Var: "y", Val: 1},
	}
	const want = "exceeds the supported bound"

	if err := cl.Open("s", Spec{Pred: "sum(x) >= 1", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("s", hostile[:2]); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Query("s"); err != nil || st.Possibly || !strings.Contains(st.Error, want) {
		t.Errorf("plain session after a 2^62 step: stats %+v, err %v; want a sticky error saying %q and no verdict", st, err, want)
	}
	if v, err := cl.CloseSession("s"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("close after a 2^62 step: verdict %+v, err %v; want ok:false saying %q", v, err, want)
	}

	if err := cl.Open("m", Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RegisterSpec{{ID: "px", Pred: "sum(x) >= 1"}, {ID: "py", Pred: "sum(y) >= 1"}} {
		if _, err := cl.RegisterPredicate("m", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Append("m", hostile); err != nil {
		t.Fatal(err)
	}
	st, ups, err := cl.QueryUpdates("m")
	if err != nil || st.Error != "" || len(ups) != 2 {
		t.Fatalf("mux session after a 2^62 step: stats %+v, updates %+v, err %v; want a healthy session and one update per predicate", st, ups, err)
	}
	for _, u := range ups {
		switch {
		case u.ID == "px" && (u.Possibly || !strings.Contains(u.Err, want)):
			t.Errorf("sum(x) >= 1 after a 2^62 step: update %+v, want an error saying %q and no verdict", u, want)
		case u.ID == "py" && (!u.Possibly || u.Err != ""):
			t.Errorf("sum(y) >= 1 beside the failed predicate: update %+v, want it latched", u)
		}
	}
}

// BenchmarkStreamIngest measures end-to-end engine throughput in
// events/sec: one session per shard, in-order unit-step streams, batched
// appends, Backpressure policy.
func BenchmarkStreamIngest(b *testing.B) {
	const (
		procs    = 8
		batch    = 64
		sessions = 4
	)
	eng := NewEngine(Config{Shards: 4, QueueLen: 256, BatchSize: 64})
	defer eng.Shutdown()

	// Per-session synthetic workloads, generated on the fly: round-robin
	// local events, each process periodically observing a peer so the
	// vector-clock frontier advances and pruning keeps the window bounded.
	type source struct {
		vcs  [][]int64
		step int
	}
	srcs := make([]*source, sessions)
	ids := make([]string, sessions)
	for s := range srcs {
		src := &source{vcs: make([][]int64, procs)}
		for p := range src.vcs {
			src.vcs[p] = make([]int64, procs)
		}
		srcs[s] = src
		ids[s] = fmt.Sprintf("bench-%d", s)
		if err := eng.Open(ids[s], Spec{Pred: "sum(x) == -1", Procs: procs}); err != nil {
			b.Fatal(err)
		}
	}
	next := func(src *source, out []Event) []Event {
		for i := 0; i < batch; i++ {
			p := src.step % procs
			src.vcs[p][p]++
			if src.step%7 == 0 {
				q := (p + 1) % procs
				for r := 0; r < procs; r++ {
					if src.vcs[q][r] > src.vcs[p][r] {
						src.vcs[p][r] = src.vcs[q][r]
					}
				}
			}
			out = append(out, Event{
				Proc: p,
				VC:   append([]int64(nil), src.vcs[p]...),
				Val:  int64(src.step % 2),
			})
			src.step++
		}
		return out
	}

	b.ResetTimer()
	sent := 0
	for i := 0; sent < b.N; i++ {
		s := i % sessions
		evs := next(srcs[s], make([]Event, 0, batch))
		if err := eng.Append(ids[s], evs); err != nil {
			b.Fatal(err)
		}
		sent += len(evs)
	}
	for _, id := range ids { // drain the mailboxes before stopping the clock
		if _, err := eng.Query(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "events/sec")
}
