package gpd_test

// Runnable godoc examples for the main public entry points.

import (
	"fmt"

	gpd "github.com/distributed-predicates/gpd"
)

// twoFlags builds the running two-process example: p0 raises a flag and
// lowers it before telling p1, which then raises its own.
func twoFlags() (*gpd.Computation, gpd.ProcID, gpd.ProcID) {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)  // flag0 up
	a2 := c.AddInternal(p0) // flag0 down again
	b := c.AddInternal(p1)  // flag1 up, after the message
	if err := c.AddMessage(a2, b); err != nil {
		panic(err)
	}
	c.SetVar("flag", a, 1)
	c.SetVar("flag", b, 1)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	return c, p0, p1
}

// mustDetect is Detect for examples whose inputs are known good.
func mustDetect(c *gpd.Computation, pred string, opts ...gpd.Option) gpd.Report {
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		panic(err)
	}
	rep, err := gpd.Detect(c, spec, opts...)
	if err != nil {
		panic(err)
	}
	return rep
}

func ExampleDetect_conjunctive() {
	c, _, _ := twoFlags()
	fmt.Println(mustDetect(c, "all(flag)").Holds)
	// Output: false
}

func ExampleDetect_sumRange() {
	c, _, _ := twoFlags()
	// Every Possibly report on a sum carries its exact range.
	rep := mustDetect(c, "sum(flag) >= 0")
	fmt.Println(rep.Min, rep.Max)
	// Output: 0 1
}

func ExampleDetect_sum() {
	c, _, _ := twoFlags()
	rep := mustDetect(c, "sum(flag) == 1")
	fmt.Println(rep.Holds, rep.Witness)
	// Output: true <1,0>
}

func ExampleDetect_cnf() {
	c, p0, p1 := twoFlags()
	spec := gpd.Spec{Family: gpd.FamilyCNF, Var: "flag", Clauses: []gpd.SpecClause{
		{{Proc: int(p0)}, {Proc: int(p1)}}, // flag0 OR flag1
	}}
	rep, err := gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyAuto))
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Holds, rep.Strategy)
	// Output: true receive-ordered
}

func ExampleDetect_xor() {
	c, _, _ := twoFlags()
	fmt.Println(mustDetect(c, "xor(flag)").Holds)
	// Output: true
}

func ExampleDetect_definitely() {
	c, _, _ := twoFlags()
	// Every run raises exactly one flag at a time at some point.
	rep := mustDetect(c, "sum(flag) == 1", gpd.WithModality(gpd.ModalityDefinitely))
	fmt.Println(rep.Holds)
	// Output: true
}

func ExampleDetect_inFlightRange() {
	c, _, _ := twoFlags()
	rep := mustDetect(c, "inflight >= 0")
	fmt.Println(rep.Min, rep.Max)
	// Output: 0 1
}

func ExampleDetect_slice() {
	c, _, _ := twoFlags()
	// The slice of all(flag) is empty: no consistent cut satisfies it.
	rep := mustDetect(c, "all(flag)", gpd.WithStrategy(gpd.StrategySlice))
	fmt.Println(rep.Holds, rep.Witness == nil)
	// Output: false true
}

func ExampleNewSimulator() {
	sim := gpd.NewSimulator(42, gpd.NewTokenRingProcs(4, 2, 1, 3))
	c, err := sim.Run()
	if err != nil {
		panic(err)
	}
	// Token conservation at the final cut.
	fmt.Println(c.SumVar(gpd.VarTokens, c.FinalCut()))
	// Output: 2
}

func ExampleNewMonitor() {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	m.Probe(0).Internal(true)
	m.Probe(1).Internal(true)
	<-m.Detected()
	fmt.Println(len(m.Witness()))
	// Output: 2
}

func ExampleCountCuts() {
	c := gpd.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	if err := c.Seal(); err != nil {
		panic(err)
	}
	// Two independent events: a 2x2 grid of consistent cuts.
	fmt.Println(gpd.CountCuts(c))
	// Output: 4
}
