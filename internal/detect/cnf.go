package detect

import (
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

func init() {
	// CNF has no incremental detector: the singular algorithms need the
	// sealed computation (receive orders, chain covers), so the family
	// is batch-only — streaming sessions and StrategyReplay reject it.
	Register(Entry{Family: pred.CNF, Possibly: cnfPossibly, Definitely: cnfDefinitely})
}

// singularPredicate converts the CNF body of a spec into the singular
// detector's representation.
func singularPredicate(s pred.Spec) *singular.Predicate {
	p := &singular.Predicate{}
	for _, cl := range s.Clauses {
		var out singular.Clause
		for _, l := range cl {
			out = append(out, singular.Literal{Proc: computation.ProcID(l.Proc), Negated: l.Negated})
		}
		p.Clauses = append(p.Clauses, out)
	}
	return p
}

func cnfPossibly(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	res, err := singular.DetectPar(c, singularPredicate(s), singular.Truth(varTruth(c, s.Var)), opt.Singular, opt.Parallelism, tr)
	if err != nil {
		return Result{}, err
	}
	return Result{Holds: res.Found, Witness: res.Cut, Strategy: res.Strategy, Combinations: res.Combinations}, nil
}

func cnfDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	p := singularPredicate(s)
	if err := p.Validate(c); err != nil {
		return Result{}, err
	}
	truth := varTruth(c, s.Var)
	// A run avoids the predicate iff the lattice has a bottom-to-top path
	// of cuts where it does not hold.
	avoids := func(cc *computation.Computation, k computation.Cut) bool {
		return !p.Holds(cc, singular.Truth(truth), k)
	}
	return Result{Holds: !lattice.PathExists(c, c.InitialCut(), c.FinalCut(), avoids, opt.Parallelism, tr)}, nil
}
