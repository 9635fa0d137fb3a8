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
