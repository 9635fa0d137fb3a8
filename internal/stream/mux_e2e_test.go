package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// muxTag records what one event of a generated multi-variable computation
// carries on the multiplexed stream.
type muxTag struct {
	varName string
	val     int64 // variable value (0/1 vars) or occupancy delta
}

// multiVarComputation builds a random computation over several 0/1
// variables plus channel occupancy (via message pairs), with
// carried-forward variable tables so offline oracles see every variable
// at every event. It returns the sealed computation and the tagged
// multiplexed event stream in causal order.
func multiVarComputation(rng *rand.Rand, procs, rounds int, vars []string) (*computation.Computation, []Event) {
	c := computation.New()
	for p := 0; p < procs; p++ {
		c.AddProcess()
	}
	tags := make(map[computation.EventID]muxTag)
	for i := 0; i < rounds; i++ {
		p := computation.ProcID(rng.Intn(procs))
		if rng.Float64() < 0.2 && procs > 1 {
			q := computation.ProcID(rng.Intn(procs))
			for q == p {
				q = computation.ProcID(rng.Intn(procs))
			}
			send := c.AddInternal(p)
			recv := c.AddInternal(q)
			if err := c.AddMessage(send, recv); err != nil {
				panic(err)
			}
			tags[send] = muxTag{varName: detect.InFlightVar, val: 1}
			tags[recv] = muxTag{varName: detect.InFlightVar, val: -1}
			continue
		}
		id := c.AddInternal(p)
		tags[id] = muxTag{varName: vars[rng.Intn(len(vars))], val: int64(rng.Intn(2))}
	}
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
	var stream []Event
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
		out := Event{Proc: int(e.Proc), VC: vc}
		if tg, ok := tags[id]; ok {
			out.Var = tg.varName
			out.Val = tg.val
			out.Truth = tg.varName != detect.InFlightVar && tg.val != 0
		}
		stream = append(stream, out)
	}
	return c, stream
}

// TestServeMultiPredicateSession is the multiplexer e2e: one mux session
// over real TCP carrying a whole portfolio of predicates across tenants,
// streamed shuffled, every per-predicate verdict checked against the
// offline batch oracle for the full computation. Also exercises the
// mid-stream unregister path, the per-tenant cap, and the routing
// economy counters.
func TestServeMultiPredicateSession(t *testing.T) {
	const procs = 4
	srv, cl := serveLoopback(t, Config{Shards: 2, QueueLen: 64, BatchSize: 16, MaxPredicatesPerTenant: 8})
	rng := rand.New(rand.NewSource(7))
	c, events := multiVarComputation(rng, procs, 150, []string{"v0", "v1", "v2"})

	preds := []struct {
		id, tenant, text string
	}{
		{"all-v0", "alpha", "all(v0)"},
		{"sum-v0", "alpha", "sum(v0) >= 3"},
		{"sumeq-v1", "alpha", "sum(v1) == 2"},
		{"count-v1", "beta", "count(v1) >= 2"},
		{"xor-v2", "beta", "xor(v2)"},
		{"levels-v2", "beta", fmt.Sprintf("levels(v2): %d", procs-1)},
		{"busy", "", "inflight >= 2"},
		{"quiet", "", "inflight == 0"},
	}

	if err := cl.Open("m", Spec{Mux: true, Procs: procs}); err != nil {
		t.Fatal(err)
	}
	// A mux session takes no fixed predicate.
	if err := cl.Open("bad", Spec{Mux: true, Procs: procs, Pred: "all(x)"}); err == nil {
		t.Fatal("mux spec with a fixed predicate accepted")
	}
	for _, p := range preds {
		if _, err := cl.RegisterPredicate("m", RegisterSpec{ID: p.id, Tenant: p.tenant, Pred: p.text}); err != nil {
			t.Fatalf("register %s: %v", p.id, err)
		}
	}
	// A scratch registration exercises the unregister path before any
	// events flow; its slot returns to the tenant.
	if _, err := cl.RegisterPredicate("m", RegisterSpec{ID: "scratch", Tenant: "gamma", Pred: "sum(v0) >= 100"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.UnregisterPredicate("m", "scratch"); err != nil {
		t.Fatal(err)
	}
	// The per-tenant cap holds: alpha has 3 slots taken, 5 left.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("fill-%d", i)
		if _, err := cl.RegisterPredicate("m", RegisterSpec{ID: id, Tenant: "alpha", Pred: "sum(v9) >= 1000"}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	if _, err := cl.RegisterPredicate("m", RegisterSpec{ID: "over", Tenant: "alpha", Pred: "sum(v9) >= 1"}); err == nil {
		t.Fatal("registration beyond the tenant cap accepted")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("cap rejection error: %v", err)
	}

	evs := append([]Event(nil), events...)
	rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
	for len(evs) > 0 {
		n := 1 + rng.Intn(5)
		if n > len(evs) {
			n = len(evs)
		}
		if _, err := cl.Append("m", evs[:n]); err != nil {
			t.Fatalf("append: %v", err)
		}
		evs = evs[n:]
	}

	// The update fan-out is sequence-numbered and drains exactly once.
	st, updates, err := cl.QueryUpdates("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "mux" {
		t.Errorf("session kind %q, want mux", st.Kind)
	}
	if st.Registered != len(preds)+5 {
		t.Errorf("registered = %d, want %d", st.Registered, len(preds)+5)
	}
	if st.Skipped == 0 {
		t.Error("relevance routing skipped nothing")
	}
	for _, u := range updates {
		if u.Seq != 1 || u.Err != "" {
			t.Errorf("unexpected update %+v", u)
		}
	}
	if _, again, err := cl.QueryUpdates("m"); err != nil {
		t.Fatal(err)
	} else if len(again) != 0 {
		t.Errorf("second drain returned %d updates", len(again))
	}

	verdict, states, err := cl.ClosePredicates("m")
	if err != nil {
		t.Fatal(err)
	}
	final := make(map[string]mux.Update, len(states))
	for _, u := range states {
		final[u.ID] = u
	}
	anyPossibly := false
	for _, p := range preds {
		ps, err := pred.Parse(p.text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := detect.Batch(c, ps, detect.ModalityPossibly, detect.Options{}, nil)
		if err != nil {
			t.Fatalf("oracle %s: %v", p.text, err)
		}
		u, ok := final[p.id]
		if !ok {
			t.Errorf("%s missing from the close fan-out", p.id)
			continue
		}
		if u.Err != "" {
			t.Errorf("%s failed: %s", p.id, u.Err)
			continue
		}
		if u.Possibly != res.Holds {
			t.Errorf("%s (%s): mux possibly=%v, oracle=%v", p.id, p.text, u.Possibly, res.Holds)
		}
		anyPossibly = anyPossibly || res.Holds
	}
	if verdict.Possibly != anyPossibly {
		t.Errorf("session verdict %v, want any-predicate %v", verdict.Possibly, anyPossibly)
	}

	// Every slot returned to its tenant at close.
	snap := srv.Engine().Snapshot()
	if snap.Predicates != 0 || len(snap.Tenants) != 0 {
		t.Errorf("predicates leaked after close: total=%d tenants=%v", snap.Predicates, snap.Tenants)
	}
}
