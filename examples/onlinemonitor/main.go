// Onlinemonitor: passive online detection of a weak conjunctive predicate
// in a live system of goroutine "processes" connected to the streaming
// detection server — the Garg–Waldecker monitoring architecture end to
// end, on the same stack cmd/gpdserver runs.
//
// The example serves an in-process stream.Engine over loopback and opens
// one all(overloaded) session on it. Each worker keeps a vector clock,
// piggybacks timestamps on the messages it already exchanges, and
// appends every one of its events to the shared session over its own
// connection. The append reply carries the session's latched Possibly
// verdict, so workers learn of the first consistent global state in
// which every worker is simultaneously "overloaded" — even though no
// wall-clock observer could have seen it — and closing the session also
// decides Definitely over the retained trace.
//
//	go run ./examples/onlinemonitor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"github.com/distributed-predicates/gpd/internal/stream"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

const (
	nWorkers = 4
	session  = "overload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng := stream.NewEngine(stream.Config{Shards: 1})
	defer eng.Shutdown()
	srv, err := stream.ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("detection server listening on %s\n", srv.Addr())

	cl, err := stream.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Open(session, stream.Spec{Pred: "all(overloaded)", Procs: nWorkers, Retain: true}); err != nil {
		return err
	}

	// Workers exchange "work items" over channels, carrying vector
	// timestamps, and occasionally become overloaded (their conjunct).
	chans := make([]chan vclock.VC, nWorkers)
	for i := range chans {
		chans[i] = make(chan vclock.VC, 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			if err := worker(me, srv.Addr(), chans); err != nil {
				log.Printf("worker %d: %v", me, err)
			}
		}(w)
	}
	wg.Wait()

	st, err := cl.Query(session)
	if err != nil {
		return err
	}
	verdict, err := cl.CloseSession(session)
	if err != nil {
		return err
	}
	fmt.Printf("%d events streamed over %d connections\n", st.Delivered, nWorkers)
	if verdict.Possibly {
		fmt.Println("DETECTED: a consistent global state with every worker overloaded")
	} else {
		fmt.Println("no simultaneous overload was possible in this run")
	}
	if verdict.DefinitelyKnown {
		fmt.Printf("definitely (every run passes through such a state): %v\n", verdict.Definitely)
	}
	return nil
}

// probe instruments one worker: it owns the worker's vector clock and
// its connection, and appends each event to the shared session.
type probe struct {
	clock    *vclock.Clock
	cl       *stream.Client
	detected bool // the server's latched Possibly, as of the last reply
}

// record appends one event; truth is the worker's conjunct in the new
// state.
func (pr *probe) record(vc vclock.VC, truth bool) error {
	possibly, err := pr.cl.Append(session, []stream.Event{{Proc: pr.clock.Self(), VC: vc, Truth: truth}})
	pr.detected = pr.detected || possibly
	return err
}

func worker(me int, addr string, chans []chan vclock.VC) error {
	cl, err := stream.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	pr := &probe{clock: vclock.NewClock(me, nWorkers), cl: cl}
	rng := rand.New(rand.NewSource(int64(me) + 7))
	overloaded := false
	for step := 0; step < 30 && !pr.detected; step++ {
		switch rng.Intn(4) {
		case 0: // local work; load flips occasionally
			overloaded = rng.Intn(2) == 0
			if err := pr.record(pr.clock.Event(), overloaded); err != nil {
				return err
			}
		case 1: // hand work to a random peer
			to := rng.Intn(nWorkers)
			if to == me {
				to = (to + 1) % nWorkers
			}
			stamp := pr.clock.Send()
			if err := pr.record(stamp, overloaded); err != nil {
				return err
			}
			select {
			case chans[to] <- stamp:
			default: // peer busy; drop the handoff
			}
		default: // try to pick up work
			var vc vclock.VC
			select {
			case stamp := <-chans[me]:
				overloaded = true // new work: definitely busy
				vc = pr.clock.Receive(stamp)
			default:
				vc = pr.clock.Event()
			}
			if err := pr.record(vc, overloaded); err != nil {
				return err
			}
		}
	}
	return nil
}
