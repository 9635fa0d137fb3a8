package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
)

func TestEngineLifecycle(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	defer e.Shutdown()

	spec := Spec{Pred: "all(x)", Procs: 2, Retain: true}
	if err := e.Open("a", spec); err != nil {
		t.Fatal(err)
	}
	if err := e.Open("a", spec); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("second open: got %v, want ErrSessionExists", err)
	}
	if _, err := e.Query("nope"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("query unknown: got %v, want ErrUnknownSession", err)
	}

	// Concurrent true events on both processes: Possibly holds.
	if err := e.Append("a", []Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := e.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Possibly || st.Ingested != 2 || st.Delivered != 2 {
		t.Fatalf("stats after append: %+v", st)
	}
	if pos, ok := e.Possibly("a"); !ok || !pos {
		t.Fatalf("Possibly(a) = %v, %v", pos, ok)
	}

	verdict, err := e.CloseSession("a")
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Possibly || !verdict.DefinitelyKnown {
		t.Fatalf("verdict: %+v", verdict)
	}
	if _, err := e.CloseSession("a"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double close: got %v, want ErrUnknownSession", err)
	}
}

func TestEngineShutdownRejectsAndIsIdempotent(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	if err := e.Open("a", Spec{Pred: "all(x)", Procs: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Shutdown() }()
	}
	wg.Wait()
	if err := e.Open("b", Spec{Pred: "all(x)", Procs: 1}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("open after shutdown: got %v, want ErrEngineClosed", err)
	}
	if err := e.Append("a", nil); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("append after shutdown: got %v, want ErrEngineClosed", err)
	}
}

// TestEngineDropOldestSheds fills a tiny mailbox faster than the worker
// drains it and checks that shed append frames are counted, control
// messages survive, and the session fails loudly at close (gaps).
func TestEngineDropOldestSheds(t *testing.T) {
	e := NewEngine(Config{Shards: 1, QueueLen: 2, BatchSize: 1, Policy: DropOldest})
	defer e.Shutdown()
	if err := e.Open("a", Spec{Pred: "sum(x) == 5", Procs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2000; i++ {
		if err := e.Append("a", []Event{{Proc: 0, VC: []int64{i}, Val: i % 2}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.Dropped == 0 {
		t.Fatalf("no frames dropped under DropOldest with queue=2: %+v", snap.Shards)
	}
	// Control traffic still goes through, and the gaps are detected.
	if _, err := e.CloseSession("a"); err == nil {
		t.Fatal("close after shedding should report stream gaps")
	}
}

// TestEngineBackpressureLossless floods a tiny mailbox under the blocking
// policy: every event must arrive.
func TestEngineBackpressureLossless(t *testing.T) {
	e := NewEngine(Config{Shards: 1, QueueLen: 2, BatchSize: 4, Policy: Backpressure})
	defer e.Shutdown()
	const n = 2000
	if err := e.Open("a", Spec{Pred: sumEqPred(n), Procs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= n; i++ {
		if err := e.Append("a", []Event{{Proc: 0, VC: []int64{i}, Val: i}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Query("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != n {
		t.Fatalf("delivered %d of %d under backpressure", st.Delivered, n)
	}
	if snap := e.Snapshot(); snap.Dropped != 0 {
		t.Fatalf("backpressure dropped %d frames", snap.Dropped)
	}
	verdict, err := e.CloseSession("a")
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Possibly { // the final cut sums to n
		t.Fatal("expected Possibly(sum = n) at the final cut")
	}
}

// TestEngineSnapshotAggregates opens sessions across shards and checks the
// stats surface: per-shard counters, per-session rows, detections.
func TestEngineSnapshotAggregates(t *testing.T) {
	e := NewEngine(Config{Shards: 3})
	defer e.Shutdown()
	const sessions = 12
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%02d", i)
		if err := e.Open(id, Spec{Pred: "all(x)", Procs: 1}); err != nil {
			t.Fatal(err)
		}
		// Even sessions get a true event (a detection), odd ones a false.
		if err := e.Append(id, []Event{{Proc: 0, VC: []int64{1}, Truth: i%2 == 0}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sessions; i++ { // Query synchronizes with each worker
		if _, err := e.Query(fmt.Sprintf("s%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if len(snap.Sessions) != sessions {
		t.Fatalf("snapshot has %d session rows, want %d", len(snap.Sessions), sessions)
	}
	if snap.Events != sessions {
		t.Fatalf("snapshot events = %d, want %d", snap.Events, sessions)
	}
	if snap.Detections != sessions/2 {
		t.Fatalf("snapshot detections = %d, want %d", snap.Detections, sessions/2)
	}
	total := 0
	for _, sh := range snap.Shards {
		total += sh.Sessions
		if sh.QueueHighWater == 0 && sh.Frames > 0 {
			t.Fatalf("shard %d processed %d frames with zero high water", sh.Shard, sh.Frames)
		}
	}
	if total != sessions {
		t.Fatalf("shard session gauges sum to %d, want %d", total, sessions)
	}
}

// TestEngineManyConcurrentSessions drives 64 sessions from 8 goroutines
// through one engine and cross-checks every verdict against the offline
// oracle answers computed up front.
func TestEngineManyConcurrentSessions(t *testing.T) {
	e := NewEngine(Config{Shards: 4, QueueLen: 32, BatchSize: 8})
	defer e.Shutdown()

	type job struct {
		id     string
		spec   Spec
		events []Event
		want   bool
	}
	var jobs []job
	for i := 0; i < 64; i++ {
		seed := int64(i)
		c := randomComputation(seed)
		gen.UnitStepVar(seed, c, varName)
		events, init := SumTrace(c, varName)
		lo, hi := relsumRange(c)
		k := lo + int64(i)%(hi-lo+2) // sometimes hi+1: unreachable
		jobs = append(jobs, job{
			id:     fmt.Sprintf("sess-%03d", i),
			spec:   Spec{Pred: sumEqPred(k), Procs: c.NumProcs(), Init: init},
			events: events,
			want:   lo <= k && k <= hi,
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; i < len(jobs); i += 8 {
				j := jobs[i]
				if err := e.Open(j.id, j.spec); err != nil {
					errs <- err
					return
				}
				evs := append([]Event(nil), j.events...)
				rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
				for len(evs) > 0 {
					n := 1 + rng.Intn(3)
					if n > len(evs) {
						n = len(evs)
					}
					if err := e.Append(j.id, evs[:n]); err != nil {
						errs <- err
						return
					}
					evs = evs[n:]
				}
				verdict, err := e.CloseSession(j.id)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", j.id, err)
					return
				}
				if verdict.Possibly != j.want {
					errs <- fmt.Errorf("%s: Possibly=%v, oracle=%v", j.id, verdict.Possibly, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMailboxDropOldestSparesControl(t *testing.T) {
	mb := newMailbox(2)
	mb.put(shardMsg{kind: msgClose, session: "ctl"}, DropOldest)
	mb.put(shardMsg{kind: msgAppend, session: "a"}, DropOldest)
	dropped, ok := mb.put(shardMsg{kind: msgAppend, session: "b"}, DropOldest)
	if !ok || len(dropped) != 1 || dropped[0].session != "a" {
		t.Fatalf("dropped %+v, ok=%v; want the oldest append (a)", dropped, ok)
	}
	var got []shardMsg
	got, _ = mb.drain(got, 10)
	if len(got) != 2 || got[0].session != "ctl" || got[1].session != "b" {
		t.Fatalf("drained %+v; want [ctl b]", got)
	}
}

func TestMailboxBackpressureBlocks(t *testing.T) {
	mb := newMailbox(1)
	mb.put(shardMsg{kind: msgAppend, session: "a"}, Backpressure)
	unblocked := make(chan struct{})
	go func() {
		mb.put(shardMsg{kind: msgAppend, session: "b"}, Backpressure)
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("put into a full mailbox returned without a drain")
	case <-time.After(20 * time.Millisecond):
	}
	var got []shardMsg
	got, _ = mb.drain(got, 1)
	if got[0].session != "a" {
		t.Fatalf("drained %q, want a", got[0].session)
	}
	select {
	case <-unblocked:
	case <-time.After(time.Second):
		t.Fatal("producer still blocked after drain made room")
	}
}

// relsumRange is the offline oracle for reachable sums.
func relsumRange(c *computation.Computation) (int64, int64) {
	return relsum.SumRange(c, varName)
}
