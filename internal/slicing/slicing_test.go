package slicing

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
)

func localsFromTables(truth [][]bool) map[computation.ProcID]func(computation.Event) bool {
	locals := make(map[computation.ProcID]func(computation.Event) bool)
	for p, row := range truth {
		row := row
		locals[computation.ProcID(p)] = func(e computation.Event) bool {
			return e.Index < len(row) && row[e.Index]
		}
	}
	return locals
}

// TestSliceExactOnConjunctive verifies, exhaustively, that the slice of a
// conjunctive predicate contains exactly its satisfying cuts.
func TestSliceExactOnConjunctive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	built, empty := 0, 0
	for trial := 0; trial < 120; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.5})
		truth := gen.BoolTables(rng.Int63(), c, 0.6)
		o := ConjunctiveOracle(localsFromTables(truth))
		s, err := Compute(c, o)
		if errors.Is(err, ErrEmpty) {
			// Confirm against the oracle.
			if ok, _ := lattice.Possibly(c, o.Holds); ok {
				t.Fatalf("trial %d: slice empty but oracle found a cut", trial)
			}
			empty++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		built++
		if err := s.Verify(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if built < 30 {
		t.Fatalf("only %d/120 slices were non-empty; generator too sparse", built)
	}
	if empty == 0 {
		t.Log("note: no empty slices observed (fine, but lower truth density would exercise that path)")
	}
}

func TestSliceBottomIsLeastSatisfying(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.4})
		truth := gen.BoolTables(rng.Int63(), c, 0.7)
		o := ConjunctiveOracle(localsFromTables(truth))
		s, err := Compute(c, o)
		if errors.Is(err, ErrEmpty) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		bottom := s.Bottom()
		if !o.Holds(c, bottom) {
			t.Fatalf("trial %d: bottom %v does not satisfy", trial, bottom)
		}
		lattice.Explore(c, func(k computation.Cut) bool {
			if o.Holds(c, k) && !bottom.Leq(k) {
				t.Fatalf("trial %d: satisfying cut %v below claimed bottom %v", trial, k, bottom)
			}
			return true
		})
	}
}

func TestSliceCountMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		c := gen.Random(gen.Params{Seed: rng.Int63(), Procs: 3, Events: 4, MsgFrac: 0.4})
		truth := gen.BoolTables(rng.Int63(), c, 0.7)
		o := ConjunctiveOracle(localsFromTables(truth))
		s, err := Compute(c, o)
		if errors.Is(err, ErrEmpty) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		lattice.Explore(c, func(k computation.Cut) bool {
			if o.Holds(c, k) {
				want++
			}
			return true
		})
		if got := s.Count(o); got.Int64() != want {
			t.Fatalf("trial %d: slice count %v, oracle %d", trial, got, want)
		}
	}
}

func TestEmptySlice(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 1, Procs: 2, Events: 3, MsgFrac: 0})
	o := ConjunctiveOracle(map[computation.ProcID]func(computation.Event) bool{
		0: func(computation.Event) bool { return false },
	})
	if _, err := Compute(c, o); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestTrivialSliceIsWholeLattice(t *testing.T) {
	c := gen.Random(gen.Params{Seed: 2, Procs: 3, Events: 3, MsgFrac: 0.4})
	o := ConjunctiveOracle(nil) // constant true: every cut satisfies
	s, err := Compute(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Count(o).Int64(), lattice.Count(c); got != want {
		t.Fatalf("trivial slice count %d, lattice %d", got, want)
	}
}

func TestExcludedEvents(t *testing.T) {
	// p0's predicate only holds at its initial state; p0's later events
	// are excluded from every satisfying cut.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	c.AddInternal(p1)
	c.MustSeal()
	o := ConjunctiveOracle(map[computation.ProcID]func(computation.Event) bool{
		p0: func(e computation.Event) bool { return e.IsInitial() },
	})
	s, err := Compute(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.leastContaining(o, c.Event(a)) != nil {
		t.Error("a must be excluded")
	}
	if s.leastContaining(o, c.Initial(p0)) == nil {
		t.Error("the initial event is in every satisfying cut")
	}
	if err := s.Verify(o); err != nil {
		t.Fatal(err)
	}
}

func TestSliceTop(t *testing.T) {
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	c.AddInternal(p0)
	c.AddInternal(p1)
	c.MustSeal()
	// Constant-true predicate: the slice spans the whole lattice, so the
	// top is the final cut.
	o := ConjunctiveOracle(nil)
	s, err := Compute(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Top().Equal(c.FinalCut()) {
		t.Fatalf("Top = %v, want final cut %v", s.Top(), c.FinalCut())
	}
	if !s.Bottom().Equal(c.InitialCut()) {
		t.Fatalf("Bottom = %v, want initial cut", s.Bottom())
	}
}
