package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	gpd "github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/reduction"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/sat"
	"github.com/distributed-predicates/gpd/internal/simulator"
	"github.com/distributed-predicates/gpd/internal/slicing"
	"github.com/distributed-predicates/gpd/internal/subsetsum"
)

// The variables generated instances carry: a 0/1 variable, a unit-step
// integer and an integer with arbitrary jumps.
const boolVar, sumVar, jumpVar = "b", "x", "y"

var conjunction = gpd.Spec{Family: gpd.FamilyConjunctive, Var: boolVar}

// decide answers s on c through the offline front door and, where the cut
// lattice is small enough to enumerate, by the oracle (else want is NA).
func decide(c *computation.Computation, s gpd.Spec, opts ...gpd.Option) (rep gpd.Report, want int64) {
	rep = must(gpd.Detect(c, s, opts...))
	if !enumerable(c) {
		return rep, NA
	}
	holds, _ := lattice.Possibly(c, holdsAt(s))
	return rep, b2i(holds)
}

// enumerable bounds the lattice by the product of the process lengths.
func enumerable(c *computation.Computation) bool {
	cuts := 1.0
	for p := 0; p < c.NumProcs(); p++ {
		cuts *= float64(c.Len(computation.ProcID(p)))
	}
	return cuts <= 1<<17
}

// holdsAt evaluates a spec at one consistent cut: the definition the
// oracle enumerates, independent of every detector.
func holdsAt(s gpd.Spec) lattice.Predicate {
	return func(c *computation.Computation, k computation.Cut) bool {
		truth := func(e computation.Event) bool { return c.Var(s.Var, e.ID) != 0 }
		count := c.CountTrue(k, truth)
		switch s.Family {
		case gpd.FamilyConjunctive:
			return count == len(k)
		case gpd.FamilySum:
			return s.Rel.Eval(c.SumVar(s.Var, k), s.K)
		case gpd.FamilyLevels:
			return slices.Contains(s.Levels, count)
		case gpd.FamilyCNF: // no clause without a satisfied literal
			return !slices.ContainsFunc(s.Clauses, func(cl gpd.SpecClause) bool {
				return !slices.ContainsFunc(cl, func(l gpd.SpecLiteral) bool {
					p := computation.ProcID(l.Proc)
					return truth(c.EventAt(p, k[p])) != l.Negated
				})
			})
		}
		panic(fmt.Sprintf("experiments: no oracle for %v", s.Family))
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func random(seed int64, sz Size, msgFrac float64) *computation.Computation {
	return gen.Random(gen.Params{Seed: seed + int64(sz.N), Procs: sz.N, Events: sz.M, MsgFrac: msgFrac})
}

// sparse is a random computation whose 0/1 variable is true with the
// given density per state.
func sparse(seed int64, sz Size, density float64) *computation.Computation {
	c := random(seed, sz, 0.4)
	setTruth(c, singular.TruthFromTables(gen.BoolTables(seed+100+int64(sz.N), c, density)))
	return c
}

// setTruth writes a truth function as the 0/1 variable Detect reads.
func setTruth(c *computation.Computation, truth singular.Truth) {
	c.Events(func(e computation.Event) bool {
		c.SetVar(boolVar, e.ID, b2i(truth(e)))
		return true
	})
}

// grouped is the singular CNF of one clause per k consecutive processes.
func grouped(groups, k int) gpd.Spec {
	s := gpd.Spec{Family: gpd.FamilyCNF, Var: boolVar}
	for g := 0; g < groups; g++ {
		var cl gpd.SpecClause
		for j := 0; j < k; j++ {
			cl = append(cl, gpd.SpecLiteral{Proc: g*k + j})
		}
		s.Clauses = append(s.Clauses, cl)
	}
	return s
}

// theorem1 detects a formula's Section 3.1 reduction with algorithm B. ok
// reports that detection equals DPLL satisfiability and, when it holds,
// that the witness cut converts to an assignment satisfying the formula.
func theorem1(f *cnf.Formula) (in *reduction.SingularInstance, rep gpd.Report, satisfiable, ok bool) {
	in = must(reduction.SingularFromCNF(f))
	setTruth(in.C, in.Truth())
	spec := gpd.Spec{Family: gpd.FamilyCNF, Var: boolVar}
	for _, cl := range in.Pred.Clauses {
		var out gpd.SpecClause
		for _, l := range cl {
			out = append(out, gpd.SpecLiteral{Proc: int(l.Proc), Negated: l.Negated})
		}
		spec.Clauses = append(spec.Clauses, out)
	}
	rep = must(gpd.Detect(in.C, spec, gpd.WithStrategy(gpd.StrategyChainCover)))
	satisfiable = sat.Satisfiable(f)
	ok = rep.Holds == satisfiable
	if rep.Holds {
		// The true events on the witness cut's frontier are pairwise
		// consistent, so their literals do not conflict.
		var witness []computation.EventID
		for _, id := range in.C.Frontier(rep.Witness) {
			if in.Truth()(in.C.Event(id)) {
				witness = append(witness, id)
			}
		}
		a, err := in.Assignment(witness)
		ok = ok && err == nil && f.Eval(a)
	}
	return in, rep, satisfiable, ok
}

// fig1 lists Figure 1's classes in the order of the F1 ladder.
var fig1 = []struct {
	polynomial bool
	spec       gpd.Spec
	opts       []gpd.Option
}{
	{true, conjunction, nil},
	{true, gpd.Spec{Family: gpd.FamilySum, Var: jumpVar, Rel: gpd.Ge, K: 9}, nil},
	{true, grouped(2, 2), []gpd.Option{gpd.WithStrategy(gpd.StrategyReceiveOrdered)}},
	{false, grouped(2, 2), []gpd.Option{gpd.WithStrategy(gpd.StrategyChainCover)}},
	{true, gpd.Spec{Family: gpd.FamilySum, Var: sumVar, Rel: gpd.Eq, K: 2}, nil},
	{false, gpd.Spec{Family: gpd.FamilySum, Var: jumpVar, Rel: gpd.Eq, K: 0}, nil},
	{true, gpd.Spec{Family: gpd.FamilyLevels, Var: boolVar, Levels: symmetric.Xor(4).Levels}, nil},
}

func measureFig1(sz Size) Row {
	// Receive-funnelled in groups of two for the ordered singular detector.
	c := gen.GroupFunnel(gen.Params{Seed: 1, Procs: 4, Events: 6, MsgFrac: 0.4}, 2, true)
	gen.BoolVar(2, c, boolVar, 0.3)
	gen.UnitStepVar(3, c, sumVar)
	gen.ArbitraryStepVar(4, c, jumpVar, 4)
	class := fig1[sz.N]
	rep, err := gpd.Detect(c, class.spec, class.opts...)
	if errors.Is(err, gpd.ErrNotUnitStep) {
		return Row{"polynomial": b2i(class.polynomial), "answered": 0, "agree": NA}
	}
	must(rep, err)
	want, _ := lattice.Possibly(c, holdsAt(class.spec))
	return Row{"polynomial": b2i(class.polynomial), "answered": 1, "agree": b2i(rep.Holds == want)}
}

// fig2Computation is the running example of Figure 2, reconstructed from
// the relations the text asserts (the archived figure is degraded):
// next(e) -> g makes e,g inconsistent, while g sends directly to h, so
// causal order does not imply inconsistency.
func fig2Computation() (*computation.Computation, map[string]computation.EventID) {
	c := computation.New()
	p0, p1, p2, p3 := c.AddProcess(), c.AddProcess(), c.AddProcess(), c.AddProcess()
	e := c.AddInternal(p0)
	e2 := c.AddInternal(p0)
	f := c.AddInternal(p1)
	g := c.AddInternal(p2)
	c.AddInternal(p2)
	h := c.AddInternal(p3)
	must(0, c.AddMessage(e2, g))
	must(0, c.AddMessage(g, h))
	return c.MustSeal(), map[string]computation.EventID{"e": e, "f": f, "g": g, "h": h}
}

func measureFig2(Size) Row {
	c, ev := fig2Computation()
	return Row{"e,f consistent": b2i(c.ConsistentEvents(ev["e"], ev["f"])), "e,f independent": b2i(c.Independent(ev["e"], ev["f"])),
		"e,g consistent": b2i(c.ConsistentEvents(ev["e"], ev["g"])),
		"g,h ordered":    b2i(c.Precedes(ev["g"], ev["h"])), "g,h consistent": b2i(c.ConsistentEvents(ev["g"], ev["h"]))}
}

func measureFig3(Size) Row {
	f := &cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1, 2}, {-1, 3}, {2, -3, 1}}}
	in, rep, satisfiable, ok := theorem1(f)
	return Row{"clauses": int64(len(f.Clauses)), "processes": int64(in.C.NumProcs()), "events": int64(in.C.NumEvents()),
		"conflict arrows": int64(len(in.C.Messages())), "DPLL sat": b2i(satisfiable), "detected": b2i(rep.Holds),
		"assignment satisfies": b2i(ok && rep.Holds)}
}

// randomFormula draws a 3-CNF formula at clause/variable ratio 2.0: low
// enough that most instances are satisfiable while the unsatisfiable
// ones, on which detection must exhaust its selections, stay small.
func randomFormula(rng *rand.Rand, nv int) *cnf.Formula {
	f := &cnf.Formula{NumVars: nv}
	for i := 0; i < nv*2; i++ {
		var cl cnf.Clause
		for j := 0; j < 3; j++ {
			l := cnf.Lit(1 + rng.Intn(nv))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

func measureE1(sz Size) Row {
	rng := rand.New(rand.NewSource(211 + int64(sz.N)))
	row := Row{"vars": int64(sz.N), "trials": int64(sz.M), "agree": 0, "sat": 0, "CPDHB runs": 0}
	for i := 0; i < sz.M; i++ {
		f := must(cnf.ToNonMonotone(randomFormula(rng, sz.N)))
		in, rep, satisfiable, ok := theorem1(f)
		row["clauses"], row["procs"] = int64(len(f.Clauses)), int64(in.C.NumProcs())
		row["agree"] += b2i(ok)
		row["sat"] += b2i(satisfiable)
		row["CPDHB runs"] += int64(rep.Combinations)
	}
	return row
}

// measureE2: the receive-ordered detector on a receive-funnelled
// computation and the send-ordered one on its send-funnelled twin.
func measureE2(sz Size) Row {
	row := Row{"groups": int64(sz.N), "events/proc": int64(sz.M), "oracle agree": NA}
	for i, strategy := range []gpd.SingularStrategy{gpd.StrategyReceiveOrdered, gpd.StrategySendOrdered} {
		c := gen.GroupFunnel(gen.Params{Seed: int64(100*(i+1) + sz.N + sz.M), Procs: 2 * sz.N, Events: sz.M, MsgFrac: 0.5}, 2, i == 0)
		setTruth(c, singular.TruthFromTables(gen.BoolTables(int64(7+2*i+sz.N), c, 0.15)))
		rep, want := decide(c, grouped(sz.N, 2), gpd.WithStrategy(strategy))
		row["found"] += b2i(rep.Holds)
		row["CPDHB runs"] += int64(rep.Combinations)
		row["eliminations"] += rep.Work.Counters["singular.eliminations"]
		row["candidates"] += rep.Work.Counters["singular.candidate_events"]
		if want != NA {
			row["oracle agree"] = max(row["oracle agree"], 0) + b2i(want == b2i(rep.Holds))
		}
	}
	return row
}

// causalChain threads g*k processes on one causal chain: each has a true
// state, then a false one whose event sends to the next process's true
// one. No two true events are consistent, so the grouped predicate is
// unsatisfiable and both general algorithms exhaust their selections: A
// tries k^g process selections, B's chain cover of a group is one chain.
func causalChain(g, k int) *computation.Computation {
	c := computation.New()
	for p := computation.ProcID(0); int(p) < g*k; p++ {
		c.AddProcess()
		c.SetVar(boolVar, c.AddInternal(p), 1)
		c.AddInternal(p)
		if p > 0 {
			must(0, c.AddMessage(c.EventAt(p-1, 2).ID, c.EventAt(p, 1).ID))
		}
	}
	return c.MustSeal()
}

func measureE3(sz Size) Row {
	c, spec := causalChain(sz.N, sz.M), grouped(sz.N, sz.M)
	a := must(gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyProcessSubsets)))
	b := must(gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyChainCover)))
	return Row{"groups g": int64(sz.N), "k": int64(sz.M), "k^g": int64(math.Pow(float64(sz.M), float64(sz.N))),
		"combos A": int64(a.Combinations), "combos B": int64(b.Combinations),
		"found A": b2i(a.Holds), "found B": b2i(b.Holds)}
}

func measureE4(sz Size) Row {
	c := random(400, sz, 0.5)
	gen.UnitStepVar(int64(500+sz.N), c, sumVar)
	rep, want := decide(c, gpd.Spec{Family: gpd.FamilySum, Var: sumVar, Rel: gpd.Eq, K: 1})
	row := Row{"procs": int64(sz.N), "events/proc": int64(sz.M), "events": int64(sz.N * sz.M), "lattice cuts": NA,
		"lattice verdict": want, "closure verdict": b2i(rep.Holds), "augmenting paths": rep.Work.Counters["maxflow.augmenting_paths"]}
	if want != NA {
		row["lattice cuts"] = lattice.Count(c)
	}
	return row
}

// measureE5 decides each instance by the DP and by exhaustive detection on
// the Section 4.1 reduction, then offers it to the polynomial detector.
func measureE5(sz Size) Row {
	rng := rand.New(rand.NewSource(601 + int64(sz.N)))
	row := Row{"elements": int64(sz.N), "2^n": 1 << sz.N, "trials": int64(sz.M), "agree": 0, "refused": 0}
	for i := 0; i < sz.M; i++ {
		inst := subsetsum.Instance{Sizes: make([]int64, sz.N), Target: int64(rng.Intn(16 * sz.N))}
		for j := range inst.Sizes {
			inst.Sizes[j] = int64(2 + rng.Intn(29))
		}
		want, _ := subsetsum.Solve(inst) // the second result is the subset, not an error
		c := reduction.RelsumFromSubsetSum(inst)
		spec := gpd.Spec{Family: gpd.FamilySum, Var: reduction.SumVar, Rel: gpd.Eq, K: inst.Target}
		got, _ := lattice.Possibly(c, holdsAt(spec))
		_, err := gpd.Detect(c, spec)
		row["agree"] += b2i(got == want)
		row["refused"] += b2i(errors.Is(err, gpd.ErrNotUnitStep))
		row["lattice cuts"] = lattice.Count(c)
	}
	return row
}

func measureE6(sz Size) Row {
	c := must(simulator.New(int64(700+sz.N), simulator.NewVoterProcs(sz.N, 4, func(i int) bool { return i%2 == 0 })).Run())
	row := Row{"procs": int64(sz.N), "events": int64(c.NumEvents()), "oracle agree": NA}
	for col, levels := range map[string][]int{"xor": symmetric.Xor(sz.N).Levels,
		"no 2/3 majority": symmetric.NoTwoThirdsMajority(sz.N).Levels, "exactly n/2": {sz.N / 2}} {
		rep, want := decide(c, gpd.Spec{Family: gpd.FamilyLevels, Var: simulator.VarYes, Levels: levels})
		row[col] = b2i(rep.Holds)
		row["augmenting paths"] += rep.Work.Counters["maxflow.augmenting_paths"]
		if want != NA {
			row["oracle agree"] = max(row["oracle agree"], 0) + b2i(want == b2i(rep.Holds))
		}
	}
	return row
}

func measureE7(sz Size) Row {
	c := sparse(800, sz, 0.25)
	rep, want := decide(c, conjunction)
	return Row{"procs": int64(sz.N), "events/proc": int64(sz.M), "found": b2i(rep.Holds), "lattice verdict": want,
		"candidates":      rep.Work.Counters["conjunctive.candidate_events"],
		"tokens advanced": rep.Work.Counters["conjunctive.tokens_advanced"]}
}

func measureX1(sz Size) Row {
	c := sparse(1000, sz, 0.7)
	sliced := must(gpd.Detect(c, conjunction, gpd.WithStrategy(gpd.StrategySlice)))
	row := Row{"procs": int64(sz.N), "events/proc": int64(sz.M), "lattice cuts": 0, "satisfying cuts": 0,
		"slice cuts": 0, "slice verdict": b2i(sliced.Holds)}
	holds := holdsAt(conjunction)
	lattice.Explore(c, func(k computation.Cut) bool {
		row["lattice cuts"]++
		row["satisfying cuts"] += b2i(holds(c, k))
		return true
	})
	row["lattice verdict"] = b2i(row["satisfying cuts"] > 0)
	locals := make(map[computation.ProcID]func(computation.Event) bool, sz.N)
	for p := 0; p < sz.N; p++ {
		locals[computation.ProcID(p)] = func(e computation.Event) bool { return c.Var(boolVar, e.ID) != 0 }
	}
	o := slicing.ConjunctiveOracle(locals)
	if s, err := slicing.Compute(c, o); !errors.Is(err, slicing.ErrEmpty) {
		row["slice cuts"] = must(s, err).Count(o).Int64()
	}
	return row
}

func measureX2(sz Size) Row {
	protocol := [][]simulator.Process{simulator.NewTokenRingProcs(8, 2, 1, 4),
		simulator.NewTwoPhaseProcs(8, false, func(int) bool { return true }),
		simulator.NewElectionProcs(8, nil), simulator.NewGossiperProcs(16, 40, 400)}[sz.N]
	c := must(simulator.New(int64(31+sz.N), protocol).Run())
	spec := gpd.Spec{Family: gpd.FamilyInFlight, Rel: gpd.Ge, K: 0}
	batch := must(gpd.Detect(c, spec))
	replay := must(gpd.Detect(c, spec, gpd.WithStrategy(gpd.StrategyReplay)))
	return Row{"procs": int64(c.NumProcs()), "events": int64(c.NumEvents()), "msgs": int64(len(c.Messages())),
		"min": batch.Min, "max": batch.Max, "replay min": replay.Min, "replay max": replay.Max}
}

func measureX3(sz Size) Row {
	c := sparse(1200, sz, 0.8)
	rep := must(gpd.Detect(c, conjunction, gpd.WithModality(gpd.ModalityDefinitely)))
	row := Row{"procs": int64(sz.N), "events/proc": int64(sz.M), "holds": b2i(rep.Holds), "lattice verdict": NA,
		"true intervals": rep.Work.Counters["conjunctive.true_intervals"],
		"eliminated":     rep.Work.Counters["conjunctive.intervals_eliminated"]}
	if enumerable(c) {
		row["lattice verdict"] = b2i(lattice.Definitely(c, holdsAt(conjunction)))
	}
	return row
}
