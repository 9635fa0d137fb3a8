package gpd_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
)

// buildDebugScenario assembles the two-process computation used across the
// public API tests: p0 flips a flag at event a; p1 flips at event b after a
// message from a third event. The 0/1 variable "x" is true exactly at a
// and b.
func buildDebugScenario(t *testing.T) (*gpd.Computation, gpd.EventID, gpd.EventID) {
	t.Helper()
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a2, b); err != nil {
		t.Fatal(err)
	}
	c.SetVar("x", a, 1)
	c.SetVar("x", b, 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

func TestPossiblyConjunctivePublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	if detect(t, c, "all(x)").Holds {
		t.Fatal("a happened-before b through a2: conjunction must not hold")
	}
	c.SetVar("y", a, 1)
	c.SetVar("y", c.Initial(1).ID, 1)
	rep := detect(t, c, "all(y)")
	if !rep.Holds || !rep.Witness.PassesThrough(c.Event(a)) {
		t.Fatalf("a is consistent with p1's initial state, got %+v", rep)
	}
}

func TestPossiblySingularPublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	rep := detect(t, c, "cnf(x): (0 | 1)", gpd.WithStrategy(gpd.StrategyAuto))
	if !rep.Holds || !rep.Witness.PassesThrough(c.Event(a)) {
		t.Fatalf("disjunction (x0 | x1) holds at the cut through a, got %+v", rep)
	}
}

func TestSumAPIsPublic(t *testing.T) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	e0 := c.AddInternal(p0)
	e1 := c.AddInternal(p1)
	c.SetVar("x", e0, 1)
	c.SetVar("x", e1, 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	rep := detect(t, c, "sum(x) == 1")
	if !rep.HasRange || rep.Min != 0 || rep.Max != 2 {
		t.Fatalf("range = [%d,%d] has=%v, want [0,2]", rep.Min, rep.Max, rep.HasRange)
	}
	if !rep.Holds || rep.Witness == nil {
		t.Fatalf("Possibly(sum == 1) = %+v", rep)
	}
	if got := c.SumVar("x", rep.Witness); got != 1 {
		t.Fatalf("witness sum = %d", got)
	}
	if !detect(t, c, "sum(x) == 1", definitely).Holds {
		t.Fatal("Definitely(sum == 1) must hold (every run passes 0->1->2)")
	}
	if err := gpd.ValidateUnitStep(c, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := gpd.ParseRelop(">="); err != nil {
		t.Fatal(err)
	}
}

func TestUnitStepErrorSurfaced(t *testing.T) {
	c := gpd.New()
	p := c.AddProcess()
	e := c.AddInternal(p)
	c.SetVar("x", e, 10)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	spec := gpd.Spec{Family: gpd.FamilySum, Var: "x", Rel: gpd.Eq, K: 5}
	if _, err := gpd.Detect(c, spec); !errors.Is(err, gpd.ErrNotUnitStep) || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("err = %v, want ErrNotUnitStep naming the variable", err)
	}
}

func TestSymmetricPublic(t *testing.T) {
	c, _, _ := buildDebugScenario(t)
	spec := gpd.Spec{Family: gpd.FamilyLevels, Var: "x", Levels: gpd.Xor(2).Levels}
	rep, err := gpd.Detect(c, spec)
	if err != nil || !rep.Holds {
		t.Fatalf("Possibly(xor) = %v, %v", rep.Holds, err)
	}
	if rep.Witness == nil {
		t.Fatal("expected witness cut")
	}
	def, err := gpd.Detect(c, spec, definitely)
	if err != nil {
		t.Fatal(err)
	}
	if !def.Holds {
		t.Fatal("the flips are ordered, so every run passes through count=1")
	}
}

func TestGenericOraclesPublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	ok, cut := gpd.PossiblyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
		return k.PassesThrough(cc.Event(a))
	})
	if !ok || !cut.PassesThrough(c.Event(a)) {
		t.Fatal("generic possibly failed")
	}
	if !gpd.DefinitelyGeneric(c, func(cc *gpd.Computation, k gpd.Cut) bool {
		return k.Size() == 1
	}) {
		t.Fatal("every run passes through level 1")
	}
	if n := gpd.CountCuts(c); n <= 0 {
		t.Fatalf("CountCuts = %d", n)
	}
}

func TestSimulatorPublic(t *testing.T) {
	sim := gpd.NewSimulator(1, gpd.NewTokenRingProcs(3, 1, 1, 2))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !detect(t, c, "count(tokens) == 1").Holds {
		t.Fatal("some cut must show exactly one token holder")
	}
}

func TestMonitorPublic(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	m.Probe(0).Internal(true)
	m.Probe(1).Internal(true)
	<-m.Detected()
	if len(m.Witness()) != 2 {
		t.Fatal("expected a two-process witness")
	}
}

func TestTraceRoundTripPublic(t *testing.T) {
	c, a, _ := buildDebugScenario(t)
	var buf bytes.Buffer
	if err := gpd.WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := gpd.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != c.NumEvents() {
		t.Fatal("trace round trip lost events")
	}
	_ = a
}

func TestDefinitelySingularPublic(t *testing.T) {
	c, _, _ := buildDebugScenario(t)
	// Every run passes through a (p0's first event), where the clause holds.
	if !detect(t, c, "cnf(x): (0 | 1)", definitely).Holds {
		t.Fatal("the disjunction holds on every run")
	}
	// Validation errors surface.
	bad := gpd.Spec{Family: gpd.FamilyCNF, Var: "x", Clauses: []gpd.SpecClause{{{Proc: 0}}, {{Proc: 0}}}}
	if _, err := gpd.Detect(c, bad, definitely); err == nil {
		t.Fatal("non-singular predicate must be rejected")
	}
}

func TestDefinitelyConjunctivePublic(t *testing.T) {
	// Two processes that become true and stay true: definite.
	c := gpd.New()
	a := c.AddInternal(c.AddProcess())
	b := c.AddInternal(c.AddProcess())
	c.SetVar("stable", a, 1)
	c.SetVar("stable", b, 1)
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if !detect(t, c, "all(stable)", definitely).Holds {
		t.Fatal("stable conjunction must be definite")
	}
	// A conjunct that is never true cannot be definite.
	if detect(t, c, "all(never)", definitely).Holds {
		t.Fatal("never-true conjunct cannot be definite")
	}
}
