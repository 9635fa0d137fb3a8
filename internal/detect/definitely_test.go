package detect

import (
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// TestNotPossiblyDecidesDefinitelyWithoutSearch checks that Definitely
// implies Possibly in the batch kernels: a sum threshold one past
// either end of the attained range, and a level the true-count never
// reaches, are decided false by the Possibly closures alone, with no
// lattice region search (lattice.region_cuts_explored stays 0).
func TestNotPossiblyDecidesDefinitelyWithoutSearch(t *testing.T) {
	decide := func(c *computation.Computation, s pred.Spec) {
		t.Helper()
		tr := obs.NewTrace()
		res, err := Batch(c, s, ModalityDefinitely, Options{Parallelism: 1}, tr)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if cuts := tr.Report().Counters["lattice.region_cuts_explored"]; res.Holds || cuts != 0 {
			t.Errorf("%d procs, %v: Definitely=%v after %d region cuts; want false after 0", c.NumProcs(), s, res.Holds, cuts)
		}
	}
	for _, procs := range []int{4, 5} {
		c := gen.Random(gen.Params{Seed: 1, Procs: procs, Events: 6, MsgFrac: 0.3})
		gen.UnitStepVar(1, c, "x")
		lo, hi := relsum.SumRange(c, "x")
		for _, k := range []int64{lo - 1, hi + 1} {
			decide(c, pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Eq, K: k})
		}
	}
	c := gen.Random(gen.Params{Seed: 1, Procs: 5, Events: 6, MsgFrac: 0.3})
	gen.BoolVar(1, c, "b", 0.2)
	lo, hi := relsum.SumRange(c, "b")
	m := int(hi) + 1
	if hi == 5 {
		m = int(lo) - 1
	}
	if m < 0 {
		t.Fatalf("the true-count attains every level [%d, %d]; pick another seed", lo, hi)
	}
	decide(c, pred.Spec{Family: pred.Levels, Var: "b", Levels: []int{m}})
}

// TestCNFDefinitelyReportsRegionWork: the cnf Definitely kernel is one
// region search over the complement of the predicate, and reports its
// work as lattice.region_cuts_explored. On two independent processes
// whose flags each rise and fall, p0 ∧ p1 is avoidable only after a
// search; raised at the start, it holds at the initial cut and no cut
// is explored.
func TestCNFDefinitelyReportsRegionWork(t *testing.T) {
	spec := pred.Spec{Family: pred.CNF, Var: "x", Clauses: []pred.Clause{{{Proc: 0}}, {{Proc: 1}}}}
	for _, tc := range []struct {
		initial     int64
		holds       bool
		explores    bool
		description string
	}{
		{0, false, true, "flags down at the start"},
		{1, true, false, "flags up at the start"},
	} {
		c := computation.New()
		for p := 0; p < 2; p++ {
			proc := c.AddProcess()
			c.SetVar("x", c.Initial(proc).ID, tc.initial)
			c.SetVar("x", c.AddInternal(proc), 1)
			c.SetVar("x", c.AddInternal(proc), 0)
		}
		c.MustSeal()
		tr := obs.NewTrace()
		res, err := Batch(c, spec, ModalityDefinitely, Options{Parallelism: 1}, tr)
		if err != nil {
			t.Fatal(err)
		}
		cuts := tr.Report().Counters["lattice.region_cuts_explored"]
		if res.Holds != tc.holds || (cuts > 0) != tc.explores {
			t.Errorf("%s: Definitely=%v after %d region cuts; want %v, exploring %v", tc.description, res.Holds, cuts, tc.holds, tc.explores)
		}
	}
}
