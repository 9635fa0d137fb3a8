package gen

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
)

func TestRandomShape(t *testing.T) {
	c := Random(Params{Seed: 1, Procs: 5, Events: 10, MsgFrac: 0.5})
	if c.NumProcs() != 5 {
		t.Fatalf("procs = %d", c.NumProcs())
	}
	for p := 0; p < 5; p++ {
		if c.Len(computation.ProcID(p)) != 11 {
			t.Fatalf("process %d has %d events, want 11", p, c.Len(computation.ProcID(p)))
		}
	}
	if len(c.Messages()) == 0 {
		t.Fatal("expected some messages")
	}
	if !c.Sealed() {
		t.Fatal("generator must seal")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(Params{Seed: 9, Procs: 4, Events: 8, MsgFrac: 1})
	b := Random(Params{Seed: 9, Procs: 4, Events: 8, MsgFrac: 1})
	if len(a.Messages()) != len(b.Messages()) {
		t.Fatal("same seed must give same messages")
	}
	c := Random(Params{Seed: 10, Procs: 4, Events: 8, MsgFrac: 1})
	if len(a.Messages()) == len(c.Messages()) {
		ma, mc := a.Messages(), c.Messages()
		same := true
		for i := range ma {
			if ma[i] != mc[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave identical computations")
		}
	}
}

func TestGroupFunnelReceiveOrdered(t *testing.T) {
	const groupSize = 2
	c := GroupFunnel(Params{Seed: 3, Procs: 6, Events: 8, MsgFrac: 1}, groupSize, true)
	// Receives may land only on group-first processes.
	c.Events(func(e computation.Event) bool {
		if e.Kind.IsReceive() && int(e.Proc)%groupSize != 0 {
			t.Fatalf("receive on non-first process %d", e.Proc)
		}
		return true
	})
	// And the singular receive-ordered detector must accept it.
	p := &singular.Predicate{Clauses: []singular.Clause{
		{{Proc: 0}, {Proc: 1}},
		{{Proc: 2}, {Proc: 3}},
		{{Proc: 4}, {Proc: 5}},
	}}
	truth := singular.TruthFromTables(BoolTables(7, c, 0.3))
	if _, err := singular.Detect(c, p, truth, singular.ReceiveOrdered); err != nil {
		t.Fatalf("receive-ordered detector rejected funnelled computation: %v", err)
	}
}

func TestGroupFunnelSendOrdered(t *testing.T) {
	const groupSize = 2
	c := GroupFunnel(Params{Seed: 5, Procs: 6, Events: 8, MsgFrac: 1}, groupSize, false)
	c.Events(func(e computation.Event) bool {
		if (e.Kind == computation.KindSend || e.Kind == computation.KindSendReceive) && int(e.Proc)%groupSize != 0 {
			t.Fatalf("send on non-first process %d", e.Proc)
		}
		return true
	})
	p := &singular.Predicate{Clauses: []singular.Clause{
		{{Proc: 0}, {Proc: 1}},
		{{Proc: 2}, {Proc: 3}},
	}}
	truth := singular.TruthFromTables(BoolTables(7, c, 0.3))
	if _, err := singular.Detect(c, p, truth, singular.SendOrdered); err != nil {
		t.Fatalf("send-ordered detector rejected funnelled computation: %v", err)
	}
}

func TestUnitStepVar(t *testing.T) {
	c := Random(Params{Seed: 2, Procs: 4, Events: 12, MsgFrac: 0.4})
	UnitStepVar(11, c, "x")
	if err := relsum.ValidateUnitStep(c, "x"); err != nil {
		t.Fatalf("UnitStepVar not unit-step: %v", err)
	}
}

func TestArbitraryStepVar(t *testing.T) {
	c := Random(Params{Seed: 2, Procs: 3, Events: 20, MsgFrac: 0.2})
	ArbitraryStepVar(13, c, "y", 5)
	c.Events(func(e computation.Event) bool {
		if prev := c.Prev(e.ID); prev != computation.NoEvent {
			if d := c.Var("y", e.ID) - c.Var("y", prev); d > 5 || d < -5 {
				t.Fatalf("event %v steps by %d, want |step| <= 5", e, d)
			}
		}
		return true
	})
}

func TestBoolVar(t *testing.T) {
	c := Random(Params{Seed: 2, Procs: 3, Events: 30, MsgFrac: 0})
	BoolVar(17, c, "b", 0.5)
	flips := 0
	c.Events(func(e computation.Event) bool {
		v := c.Var("b", e.ID)
		if v != 0 && v != 1 {
			t.Fatalf("non-boolean value %d", v)
		}
		if !e.IsInitial() {
			prev := c.Var("b", c.Prev(e.ID))
			if v != prev {
				flips++
			}
		}
		return true
	})
	if flips == 0 {
		t.Fatal("expected some flips")
	}
}

func TestBoolTablesShape(t *testing.T) {
	c := Random(Params{Seed: 2, Procs: 3, Events: 5, MsgFrac: 0})
	tabs := BoolTables(19, c, 1.0)
	for p := range tabs {
		if len(tabs[p]) != c.Len(computation.ProcID(p)) {
			t.Fatalf("row %d has %d entries", p, len(tabs[p]))
		}
		for _, v := range tabs[p] {
			if !v {
				t.Fatal("density 1.0 must set all true")
			}
		}
	}
}
