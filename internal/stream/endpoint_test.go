package stream

import (
	"fmt"
	"math/rand"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/mux"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// endpointCell is one seed of one family: the session spec, the stream
// it is fed, and the computation the oracle decides on.
type endpointCell struct {
	spec   Spec
	events []Event
	c      *computation.Computation
}

// conjCell builds an all(x) cell whose involved processes are every
// step-th one. The session is fed random truth on the uninvolved
// processes, which it must ignore; the oracle's computation holds them
// true throughout, so its all(x) is the conjunction over the involved.
func conjCell(seed int64, step int) endpointCell {
	rng := rand.New(rand.NewSource(seed))
	c := randomComputation(seed)
	truth := gen.BoolTables(seed, c, 0.25+rng.Float64()*0.5)
	var involved []int
	for p := range truth {
		in := p%step == 0
		if in && step > 1 {
			involved = append(involved, p)
		}
		if in {
			truth[p][0] = false // online sessions take initial states as false
		}
		for i, id := range c.ProcEvents(computation.ProcID(p)) {
			var v int64
			if !in || truth[p][i] {
				v = 1
			}
			c.SetVar(varName, id, v)
		}
	}
	return endpointCell{
		spec:   Spec{Pred: "all(x)", Procs: c.NumProcs(), Involved: involved},
		events: tableTrace(c, truth),
		c:      c,
	}
}

// sumCell builds a sum(x) <rel> k cell over a unit-step variable (==)
// or one jumping by up to 2 (>=), with k walking one past each end of
// the attained range.
func sumCell(seed int64, rel string) endpointCell {
	c := randomComputation(seed)
	if rel == "==" {
		gen.UnitStepVar(seed, c, varName)
	} else {
		gen.ArbitraryStepVar(seed, c, varName, 2)
	}
	events, init := SumTrace(c, varName)
	lo, hi := relsum.SumRange(c, varName)
	k := lo - 1 + seed%(hi-lo+3)
	return endpointCell{
		spec:   Spec{Pred: fmt.Sprintf("sum(%s) %s %d", varName, rel, k), Procs: c.NumProcs(), Init: init},
		events: events,
		c:      c,
	}
}

// levelsCell builds a levels(x): m cell over a random boolean, with m
// walking every true-count from 0 to n.
func levelsCell(seed int64) endpointCell {
	c := randomComputation(seed)
	gen.BoolVar(seed, c, varName, 0.4)
	events, init := BoolTrace(c, varName)
	m := int(seed) % (c.NumProcs() + 1)
	return endpointCell{
		spec:   Spec{Pred: levelsPred([]int{m}), Procs: c.NumProcs(), Init: init},
		events: events,
		c:      c,
	}
}

// inflightCell builds an inflight >= k cell, with k walking from 0 to
// one past the peak occupancy.
func inflightCell(seed int64) endpointCell {
	c := randomComputation(seed)
	_, hi := relsum.InFlightRangePar(c, 1, nil)
	k := seed % (hi + 2)
	return endpointCell{
		spec:   Spec{Pred: fmt.Sprintf("inflight >= %d", k), Procs: c.NumProcs()},
		events: InFlightTrace(c),
		c:      c,
	}
}

// muxClose feeds a cell to a multiplexed session with its predicate
// registered at open, events tagged with the variable and a flush every
// 3 events — so a routed predicate latches and releases its detector
// mid-stream — and returns the predicate's close fan-out entry.
func muxClose(t *testing.T, cell endpointCell) mux.Update {
	t.Helper()
	ps, err := pred.Parse(cell.spec.Pred)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Spec{Mux: true, Procs: cell.spec.Procs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(mux.Registration{ID: "p", Spec: ps, Involved: cell.spec.Involved, Init: cell.spec.Init}); err != nil {
		t.Fatal(err)
	}
	for i, ev := range cell.events {
		ev.Var = varName
		if ps.Family == pred.InFlight {
			ev.Var = detect.InFlightVar
		}
		if err := s.Step(ev); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			s.Flush()
		}
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	states := s.PredicateStates()
	if len(states) != 1 {
		t.Fatalf("close fan-out %+v, want one entry", states)
	}
	return states[0]
}

// TestEndpointDefinitelyMatchesOracle is the reference for the endpoint
// rule every registration made at open closes with. For 1 000 seeds of
// each family, a session that keeps no trace must decide Definitely
// exactly as gpd.Detect does whenever it decides it, and a retaining
// twin must always decide it, correctly — rebuilding the trace for
// exactly the closes its endpoints leave open. The same predicate
// registered at open on a multiplexed session must close exactly as the
// plain session does. Each family must produce all three outcomes
// (known false, known true, unknown), so no arm passes by never
// deciding.
func TestEndpointDefinitelyMatchesOracle(t *testing.T) {
	const seeds = 1000
	for _, arm := range []struct {
		name string
		cell func(seed int64) endpointCell
	}{
		{"all", func(seed int64) endpointCell { return conjCell(seed, 1) }},
		{"all/every 2nd", func(seed int64) endpointCell { return conjCell(seed, 2) }},
		{"all/every 3rd", func(seed int64) endpointCell { return conjCell(seed, 3) }},
		{"sum ==", func(seed int64) endpointCell { return sumCell(seed, "==") }},
		{"sum >=", func(seed int64) endpointCell { return sumCell(seed, ">=") }},
		{"levels", levelsCell},
		{"inflight >=", inflightCell},
	} {
		outcomes := map[string]int{}
		for seed := int64(0); seed < seeds; seed++ {
			cell := arm.cell(seed)
			ps, err := gpd.ParseSpec(cell.spec.Pred)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gpd.Detect(cell.c, ps, gpd.WithModality(gpd.ModalityDefinitely))
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", arm.name, seed, err)
			}

			v, _ := replay(t, rand.New(rand.NewSource(seed)), cell.spec, cell.events)
			if u := muxClose(t, cell); u.Err != "" || u.Possibly != v.Possibly || u.Definitely != v.Definitely || u.DefinitelyKnown != v.DefinitelyKnown {
				t.Errorf("%s seed %d (%s): mux registration at open closes %+v, plain session %+v",
					arm.name, seed, cell.spec.Pred, u, v)
			}
			switch {
			case !v.DefinitelyKnown:
				outcomes["unknown"]++
			case v.Definitely != want.Holds:
				t.Errorf("%s seed %d (%s): endpoints decided Definitely=%v, gpd.Detect says %v",
					arm.name, seed, cell.spec.Pred, v.Definitely, want.Holds)
			default:
				outcomes[fmt.Sprint(v.Definitely)]++
			}

			retain := cell.spec
			retain.Retain = true
			s, err := NewSession(retain)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range cell.events {
				if err := s.Step(ev); err != nil {
					t.Fatal(err)
				}
			}
			tr := obs.NewTrace()
			rv, err := s.FinalizeTraced(tr)
			if err != nil {
				t.Fatalf("%s seed %d: retained close: %v", arm.name, seed, err)
			}
			if !rv.DefinitelyKnown || rv.Definitely != want.Holds || rv.Possibly != v.Possibly {
				t.Errorf("%s seed %d (%s): retained close %+v, plain %+v, gpd.Detect Definitely=%v",
					arm.name, seed, cell.spec.Pred, rv, v, want.Holds)
			}
			if rebuilt := tr.Report().Counters["stream.rebuilt_events"]; (rebuilt > 0) == v.DefinitelyKnown {
				t.Errorf("%s seed %d (%s): retained close rebuilt %d events; the endpoints decided: %v",
					arm.name, seed, cell.spec.Pred, rebuilt, v.DefinitelyKnown)
			}
		}
		for _, o := range []string{"false", "true", "unknown"} {
			if outcomes[o] == 0 {
				t.Errorf("%s: no seed produced the %s outcome: %v", arm.name, o, outcomes)
			}
		}
		t.Logf("%s: %v", arm.name, outcomes)
	}
}
