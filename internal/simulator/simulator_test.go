package simulator

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
)

func TestTokenRingConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := New(seed, NewTokenRingProcs(4, 2, 1, 3))
		c, err := sim.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.NumEvents() <= 4 {
			t.Fatalf("seed %d: no events recorded", seed)
		}
		// Tokens are conserved except while in flight: the sum over any
		// consistent cut is between 0 and 2, and the final cut holds
		// exactly 2.
		min, max := relsum.SumRange(c, VarTokens)
		if max != 2 {
			t.Errorf("seed %d: max tokens = %d, want 2", seed, max)
		}
		if min < 0 || min > 2 {
			t.Errorf("seed %d: min tokens = %d out of range", seed, min)
		}
		if got := c.SumVar(VarTokens, c.FinalCut()); got != 2 {
			t.Errorf("seed %d: final token count = %d, want 2", seed, got)
		}
	}
}

func TestTokenRingUnitStep(t *testing.T) {
	sim := New(7, NewTokenRingProcs(5, 1, 2, 4))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := relsum.ValidateUnitStep(c, VarTokens); err != nil {
		t.Errorf("token counts must be unit-step: %v", err)
	}
}

func TestFlawedMutexViolationDetectable(t *testing.T) {
	// Across seeds, the flawed protocol must admit a consistent cut with
	// two processes in the critical section (that is the bug).
	violated := false
	for seed := int64(0); seed < 20 && !violated; seed++ {
		sim := New(seed, NewFlawedMutexProcs(4, 2))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		ok, _, _, _, err := symmetric.PossiblyPar(c,
			symmetric.FromFunc(4, func(m int) bool { return m >= 2 }),
			func(e computation.Event) bool { return c.Var(VarCS, e.ID) != 0 }, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			violated = true
		}
	}
	if !violated {
		t.Error("no seed exhibited a detectable mutual exclusion violation")
	}
}

func TestVoterRecordsVotes(t *testing.T) {
	sim := New(3, NewVoterProcs(5, 3, func(i int) bool { return i%2 == 0 }))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Initial votes recorded at initial events: 3 yes of 5.
	var yes int64
	for p := 0; p < c.NumProcs(); p++ {
		yes += c.Var(VarYes, c.Initial(computation.ProcID(p)).ID)
	}
	if yes != 3 {
		t.Errorf("initial yes count = %d, want 3", yes)
	}
	if err := relsum.ValidateUnitStep(c, VarYes); err != nil {
		t.Errorf("votes must be unit-step: %v", err)
	}
}

func TestGossiperShape(t *testing.T) {
	sim := New(11, NewGossiperProcs(4, 10, 300))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumProcs() != 4 {
		t.Fatalf("procs = %d", c.NumProcs())
	}
	// Each process does its 10 steps plus receives.
	for p := 0; p < 4; p++ {
		if c.Len(computation.ProcID(p)) < 11 {
			t.Errorf("process %d has %d events, want >= 11", p, c.Len(computation.ProcID(p)))
		}
	}
	if err := relsum.ValidateUnitStep(c, VarLevel); err != nil {
		t.Errorf("level must be unit-step: %v", err)
	}
	if len(sim.VarNames()) != 2 {
		t.Errorf("VarNames = %v", sim.VarNames())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *computation.Computation {
		sim := New(42, NewGossiperProcs(3, 8, 400))
		c, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a.NumEvents() != b.NumEvents() {
		t.Fatalf("event counts differ: %d vs %d", a.NumEvents(), b.NumEvents())
	}
	if len(a.Messages()) != len(b.Messages()) {
		t.Fatalf("message counts differ")
	}
	for i, m := range a.Messages() {
		if b.Messages()[i] != m {
			t.Fatalf("message %d differs", i)
		}
	}
}

func TestMaxEventsBound(t *testing.T) {
	// A protocol that never quiesces is cut off at the bound.
	sim := New(1, []Process{endless{}, endless{}}, WithMaxEvents(50))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() > 52 { // bound + initial events
		t.Errorf("events = %d, want <= 52", c.NumEvents())
	}
}

type endless struct{}

func (endless) Init(*Ctx)                    {}
func (endless) OnMessage(*Ctx, int, Payload) {}
func (endless) OnStep(ctx *Ctx) bool         { return true }

func TestVariablePersistence(t *testing.T) {
	// A variable set once must be visible at all later events of the
	// process.
	sim := New(5, []Process{&setOnce{}})
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := c.Final(0)
	if got := c.Var("v", last.ID); got != 9 {
		t.Errorf("final value = %d, want 9 (persisted)", got)
	}
}

type setOnce struct{ steps int }

func (s *setOnce) Init(*Ctx)                    {}
func (s *setOnce) OnMessage(*Ctx, int, Payload) {}
func (s *setOnce) OnStep(ctx *Ctx) bool {
	s.steps++
	if s.steps == 1 {
		ctx.Set("v", 9)
	}
	return s.steps < 3
}
