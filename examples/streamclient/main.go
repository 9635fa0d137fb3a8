// Streamclient drives a running gpdserver: it fabricates random
// distributed computations, streams each one as a session over TCP in a
// causally-scrambled order, and cross-checks every online verdict against
// gpd.Detect run locally on the same trace — one oracle for every family,
// resolved through the same detector registry the server uses. Sessions
// rotate through the incremental-capable families (conjunctive, sum,
// levels, channel occupancy), opened with canonical predicate grammar
// strings. Exit status is nonzero on any mismatch, which makes it double
// as the serving smoke test in CI.
//
// With -predicates N the client additionally opens one multiplexed
// session (Spec.Mux): N predicates across several tenants registered on
// a single causally ordered stream of a multi-variable computation, the
// close-time per-predicate fan-out checked against the same offline
// oracles.
//
// With -slice (on by default) the client also drives one sliced session
// (Spec.Slice): a conjunctive stream served from the incremental slice's
// compacting frontier instead of retained history, its verdict checked
// against both the offline batch detector and the offline slice strategy
// (gpd.StrategySlice), and its compaction ledger checked to have freed
// the whole stream.
//
// With -debug pointing at the server's stats listener, the client ends
// the run by scraping /debug/tenants, printing the per-tenant cost
// summary, and failing unless every tenant it drove shows up in the
// ledger with nonzero detector steps.
//
//	gpdserver -addr 127.0.0.1:7400 -stats 127.0.0.1:7401   # terminal 1
//	go run ./examples/streamclient -addr 127.0.0.1:7400 -sessions 8 -predicates 32 -debug http://127.0.0.1:7401
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/stream"
)

const varName = "x"

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "gpdserver address")
	sessions := flag.Int("sessions", 8, "number of concurrent sessions")
	procs := flag.Int("procs", 3, "processes per monitored application")
	events := flag.Int("events", 5, "events per process")
	seed := flag.Int64("seed", 1, "base random seed")
	predicates := flag.Int("predicates", 0, "also drive one multiplexed session with this many predicates (0: skip)")
	slice := flag.Bool("slice", true, "also drive one sliced session (Spec.Slice) and cross-check it against the offline slice strategy")
	wait := flag.Duration("wait", 5*time.Second, "how long to retry the first dial")
	debug := flag.String("debug", "", "gpdserver stats base URL (e.g. http://127.0.0.1:7401): after the run, scrape /debug/tenants and assert every driven tenant was cost-attributed")
	flag.Parse()

	if err := run(*addr, *sessions, *procs, *events, *seed, *predicates, *slice, *wait, *debug); err != nil {
		log.Fatal("streamclient: ", err)
	}
}

func run(addr string, sessions, procs, events int, seed int64, predicates int, slice bool, wait time.Duration, debug string) error {
	// Retry the first dial so the client can be launched alongside the
	// server (CI starts both in one step).
	deadline := time.Now().Add(wait)
	for {
		cl, err := stream.Dial(addr)
		if err == nil {
			cl.Close()
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not reachable: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := drive(addr, i, procs, events, seed+int64(i)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		fmt.Fprintln(os.Stderr, "MISMATCH:", err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions disagreed with the offline oracle", failed, sessions)
	}
	fmt.Printf("streamclient: %d sessions verified against offline oracles\n", sessions)
	if slice {
		if err := driveSliced(addr, procs, events, seed+int64(sessions)); err != nil {
			return fmt.Errorf("sliced session: %w", err)
		}
		fmt.Println("streamclient: sliced session verified against batch and slice oracles")
	}
	if predicates > 0 {
		if err := driveMux(addr, procs, predicates, seed); err != nil {
			return fmt.Errorf("multiplexed session: %w", err)
		}
		fmt.Printf("streamclient: %d multiplexed predicates verified against offline oracles\n", predicates)
	}
	if debug != "" {
		if err := checkTenants(debug, predicates); err != nil {
			return fmt.Errorf("cost attribution: %w", err)
		}
	}
	return nil
}

// checkTenants scrapes /debug/tenants off the server's stats listener and
// asserts the cost ledger attributed detector steps to every tenant this
// run drove: "default" (the plain sessions carry no tenant) and, when a
// multiplexed session ran, tenant-0..tenant-3 (driveMux rotates
// registrations through four tenants). Prints the per-tenant totals as a
// summary.
func checkTenants(base string, predicates int) error {
	resp, err := http.Get(base + "/debug/tenants")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var view struct {
		TotalCPUNanos int64 `json:"total_cpu_nanos"`
		Scopes        []struct {
			Tenant   string `json:"tenant"`
			CPUNanos int64  `json:"cpu_nanos"`
			Steps    int64  `json:"steps"`
			Events   int64  `json:"events"`
			BytesIn  int64  `json:"bytes_in"`
			BytesOut int64  `json:"bytes_out"`
		} `json:"scopes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return fmt.Errorf("decoding /debug/tenants: %w", err)
	}
	type total struct{ cpu, steps, events, bytesIn, bytesOut int64 }
	totals := map[string]*total{}
	for _, s := range view.Scopes {
		t := totals[s.Tenant]
		if t == nil {
			t = &total{}
			totals[s.Tenant] = t
		}
		t.cpu += s.CPUNanos
		t.steps += s.Steps
		t.events += s.Events
		t.bytesIn += s.BytesIn
		t.bytesOut += s.BytesOut
	}
	tenants := make([]string, 0, len(totals))
	for name := range totals {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	fmt.Printf("streamclient: per-tenant cost attribution (total CPU %s)\n", time.Duration(view.TotalCPUNanos))
	for _, name := range tenants {
		t := totals[name]
		fmt.Printf("  %-12s cpu=%-12s steps=%-8d events=%-6d bytes=%d/%d\n",
			name, time.Duration(t.cpu), t.steps, t.events, t.bytesIn, t.bytesOut)
	}
	want := []string{"default"}
	if predicates > 0 {
		for i := 0; i < 4 && i < predicates; i++ {
			want = append(want, fmt.Sprintf("tenant-%d", i))
		}
	}
	for _, name := range want {
		t := totals[name]
		if t == nil {
			return fmt.Errorf("tenant %q drove load but is missing from the ledger", name)
		}
		if t.steps == 0 {
			return fmt.Errorf("tenant %q drove load but has zero attributed detector steps", name)
		}
	}
	return nil
}

// driveMux runs one multiplexed session: a multi-variable computation
// streamed once, npreds predicates across four tenants registered on it,
// and every predicate's close-time verdict checked against gpd.Detect.
func driveMux(addr string, procs, npreds int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nvars := npreds / 4
	if nvars < 1 {
		nvars = 1
	}
	if nvars > 16 {
		nvars = 16
	}
	vars := make([]string, nvars)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	c, trace := fabricateMux(rng, procs, 40*procs, vars)

	cl, err := stream.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	id := fmt.Sprintf("streamclient-mux-%d", os.Getpid())
	if err := cl.Open(id, stream.Spec{Mux: true, Procs: procs}); err != nil {
		return err
	}
	texts := make(map[string]string, npreds)
	for i := 0; i < npreds; i++ {
		v := vars[i%len(vars)]
		var text string
		switch i % 5 {
		case 0:
			text = fmt.Sprintf("all(%s)", v)
		case 1:
			text = fmt.Sprintf("sum(%s) >= %d", v, 1+i%procs)
		case 2:
			text = fmt.Sprintf("count(%s) >= %d", v, 1+i%procs)
		case 3:
			text = fmt.Sprintf("xor(%s)", v)
		default:
			text = fmt.Sprintf("inflight >= %d", 1+i%2)
		}
		pid := fmt.Sprintf("p%04d", i)
		texts[pid] = text
		r := stream.RegisterSpec{ID: pid, Tenant: fmt.Sprintf("tenant-%d", i%4), Pred: text}
		if _, err := cl.RegisterPredicate(id, r); err != nil {
			return fmt.Errorf("register %s (%s): %w", pid, text, err)
		}
	}
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for len(trace) > 0 {
		n := 1 + rng.Intn(8)
		if n > len(trace) {
			n = len(trace)
		}
		if _, err := cl.Append(id, trace[:n]); err != nil {
			return err
		}
		trace = trace[n:]
	}
	st, _, err := cl.QueryUpdates(id)
	if err != nil {
		return err
	}
	_, states, err := cl.ClosePredicates(id)
	if err != nil {
		return err
	}
	final := make(map[string]bool, len(states))
	for _, u := range states {
		if u.Err != "" {
			return fmt.Errorf("%s (%s) failed server-side: %s", u.ID, texts[u.ID], u.Err)
		}
		final[u.ID] = u.Possibly
	}
	for pid, text := range texts {
		ps, err := gpd.ParseSpec(text)
		if err != nil {
			return err
		}
		rep, err := gpd.Detect(c, ps)
		if err != nil {
			return err
		}
		got, ok := final[pid]
		if !ok {
			return fmt.Errorf("%s (%s) missing from the close fan-out", pid, text)
		}
		if got != rep.Holds {
			return fmt.Errorf("%s (%s): server says Possibly=%v, oracle says %v", pid, text, got, rep.Holds)
		}
	}
	fmt.Printf("%-24s mux               predicates=%d steps=%d skipped=%d ok\n", id, npreds, st.Steps, st.Skipped)
	return nil
}

// fabricateMux builds a random multi-variable computation (0/1 variables
// flipped by internal events, channel occupancy moved by message pairs)
// with carried-forward variable tables, and its tagged multiplexed event
// stream in causal order.
func fabricateMux(rng *rand.Rand, procs, rounds int, vars []string) (*computation.Computation, []stream.Event) {
	c := computation.New()
	for p := 0; p < procs; p++ {
		c.AddProcess()
	}
	type tag struct {
		varName string
		val     int64
	}
	tags := make(map[computation.EventID]tag)
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
			tags[send] = tag{varName: detect.InFlightVar, val: 1}
			tags[recv] = tag{varName: detect.InFlightVar, val: -1}
			continue
		}
		id := c.AddInternal(p)
		tags[id] = tag{varName: vars[rng.Intn(len(vars))], val: int64(rng.Intn(2))}
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
	var out []stream.Event
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
		ev := stream.Event{Proc: int(e.Proc), VC: vc}
		if tg, ok := tags[id]; ok {
			ev.Var = tg.varName
			ev.Val = tg.val
			ev.Truth = tg.varName != detect.InFlightVar && tg.val != 0
		}
		out = append(out, ev)
	}
	return c, out
}

// fabricate builds the computation, the canonical predicate, and the
// event stream for one session. The predicate is returned as a gpd.Spec:
// its String() form opens the session and gpd.Detect on it is the oracle.
func fabricate(i, procs, events int, seed int64) (*computation.Computation, gpd.Spec, stream.Spec, []stream.Event, error) {
	c := gen.Random(gen.Params{Seed: seed, Procs: procs, Events: events, MsgFrac: 0.6})
	switch i % 4 {
	case 0: // conjunctive
		gen.BoolVar(seed, c, varName, 0.4)
		for p := 0; p < procs; p++ {
			// Online sessions take initial states as false.
			c.SetVar(varName, c.Initial(computation.ProcID(p)).ID, 0)
		}
		trace, _ := stream.BoolTrace(c, varName)
		ps := gpd.Spec{Family: gpd.FamilyConjunctive, Var: varName}
		return c, ps, stream.Spec{Pred: ps.String(), Procs: procs, Retain: true}, trace, nil
	case 1: // unit-step sum equality
		gen.UnitStepVar(seed, c, varName)
		trace, init := stream.SumTrace(c, varName)
		lo, hi := relsum.SumRange(c, varName)
		k := lo + seed%(hi-lo+2)
		ps := gpd.Spec{Family: gpd.FamilySum, Var: varName, Rel: gpd.Eq, K: k}
		return c, ps, stream.Spec{Pred: ps.String(), Procs: procs, Init: init, Retain: true}, trace, nil
	case 2: // symmetric by level set
		gen.BoolVar(seed, c, varName, 0.4)
		trace, init := stream.BoolTrace(c, varName)
		sp := symmetric.NotAllEqual(procs)
		ps := gpd.Spec{Family: gpd.FamilyLevels, Var: varName, Levels: sp.Levels}
		return c, ps, stream.Spec{Pred: ps.String(), Procs: procs, Init: init, Retain: true}, trace, nil
	default: // channel occupancy
		trace := stream.InFlightTrace(c)
		ps := gpd.Spec{Family: gpd.FamilyInFlight, Rel: gpd.Ge, K: 1 + seed%2}
		return c, ps, stream.Spec{Pred: ps.String(), Procs: procs, Retain: true}, trace, nil
	}
}

// driveSliced runs one sliced conjunctive session end to end. The server
// answers from the slice's compacting frontier; the client checks the
// verdict against two independently derived offline routes — the batch
// detector and the slice strategy — and checks the compaction ledger
// accounted the whole stream.
func driveSliced(addr string, procs, events int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	c := gen.Random(gen.Params{Seed: seed, Procs: procs, Events: events, MsgFrac: 0.6})
	gen.BoolVar(seed, c, varName, 0.4)
	for p := 0; p < procs; p++ {
		c.SetVar(varName, c.Initial(computation.ProcID(p)).ID, 0) // online initial states are false
	}
	trace, _ := stream.BoolTrace(c, varName)
	ps := gpd.Spec{Family: gpd.FamilyConjunctive, Var: varName}

	rep, err := gpd.Detect(c, ps)
	if err != nil {
		return err
	}
	repSlice, err := gpd.Detect(c, ps, gpd.WithStrategy(gpd.StrategySlice))
	if err != nil {
		return err
	}
	if rep.Holds != repSlice.Holds {
		return fmt.Errorf("offline routes disagree: batch %v, slice %v", rep.Holds, repSlice.Holds)
	}
	repDef, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
	if err != nil {
		return err
	}

	cl, err := stream.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	id := fmt.Sprintf("streamclient-slice-%d", os.Getpid())
	if err := cl.Open(id, stream.Spec{Pred: ps.String(), Procs: procs, Slice: true}); err != nil {
		return err
	}
	n := len(trace)
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for len(trace) > 0 {
		k := 1 + rng.Intn(4)
		if k > len(trace) {
			k = len(trace)
		}
		if _, err := cl.Append(id, trace[:k]); err != nil {
			return err
		}
		trace = trace[k:]
	}
	verdict, err := cl.CloseSession(id)
	if err != nil {
		return err
	}
	if verdict.Possibly != rep.Holds {
		return fmt.Errorf("%s: server says Possibly=%v, oracles say %v", id, verdict.Possibly, rep.Holds)
	}
	if verdict.DefinitelyKnown && verdict.Definitely != repDef.Holds {
		return fmt.Errorf("%s: slice decided Definitely=%v, oracle says %v", id, verdict.Definitely, repDef.Holds)
	}
	if verdict.SliceCompacted != int64(n) {
		return fmt.Errorf("%s: compaction ledger %d, want the whole stream (%d)", id, verdict.SliceCompacted, n)
	}
	fmt.Printf("%-24s %-18s Possibly=%-5v compacted=%d ok\n", id, ps.String()+" [slice]", verdict.Possibly, verdict.SliceCompacted)
	return nil
}

// drive runs one session end to end and checks it against the oracle.
func drive(addr string, i, procs, events int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	c, ps, spec, trace, err := fabricate(i, procs, events, seed)
	if err != nil {
		return err
	}

	// The offline oracle: the same registry the server resolves through,
	// via the public front door.
	rep, err := gpd.Detect(c, ps)
	if err != nil {
		return err
	}
	repDef, err := gpd.Detect(c, ps, gpd.WithModality(gpd.ModalityDefinitely))
	if err != nil {
		return err
	}
	wantPos, wantDef := rep.Holds, repDef.Holds

	cl, err := stream.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	id := fmt.Sprintf("streamclient-%d-%d", os.Getpid(), i)
	if err := cl.Open(id, spec); err != nil {
		return err
	}
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for len(trace) > 0 {
		n := 1 + rng.Intn(4)
		if n > len(trace) {
			n = len(trace)
		}
		if _, err := cl.Append(id, trace[:n]); err != nil {
			return err
		}
		trace = trace[n:]
	}
	verdict, err := cl.CloseSession(id)
	if err != nil {
		return err
	}
	if verdict.Possibly != wantPos || !verdict.DefinitelyKnown || verdict.Definitely != wantDef {
		return fmt.Errorf("%s (%s): server says Possibly=%v Definitely=%v(known=%v), oracle says %v/%v",
			id, spec.Pred, verdict.Possibly, verdict.Definitely, verdict.DefinitelyKnown, wantPos, wantDef)
	}
	fmt.Printf("%-24s %-18s Possibly=%-5v Definitely=%-5v ok\n", id, spec.Pred, verdict.Possibly, verdict.Definitely)
	return nil
}
