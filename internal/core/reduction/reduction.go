// Package reduction implements the NP-hardness constructions of Mittal &
// Garg (ICDCS 2001), in both directions:
//
//   - Section 3.1 (Theorem 1): a non-monotone 3-CNF formula is transformed
//     into a computation and a singular 2-CNF predicate such that the
//     formula is satisfiable iff some consistent cut satisfies the
//     predicate; a witness cut yields a satisfying assignment.
//   - Section 4.1 (Theorem 3): a subset-sum instance is transformed into a
//     computation with one arbitrary-increment integer variable per
//     process such that the target sum is reachable at a consistent cut
//     iff the required subset exists.
//
// The experiment harness uses these constructions with an independent SAT
// (respectively subset-sum) solver to validate the reductions empirically.
package reduction

import (
	"errors"
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/cnf"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/subsetsum"
)

// ErrNotNonMonotone indicates an input formula outside the non-monotone
// 3-CNF fragment required by the Section 3.1 construction; rewrite with
// cnf.ToNonMonotone first.
var ErrNotNonMonotone = errors.New("reduction: formula is not non-monotone 3-CNF")

// SingularInstance is a singular 2-CNF detection instance constructed from
// a formula.
type SingularInstance struct {
	// C is the constructed computation.
	C *computation.Computation
	// Pred is the singular predicate, one clause per formula clause.
	Pred *singular.Predicate
	// NumVars is the variable count of the source formula.
	NumVars int

	truth map[computation.EventID]bool
	lit   map[computation.EventID]cnf.Lit
}

// Truth returns the boolean-variable valuation of the instance.
func (in *SingularInstance) Truth() singular.Truth {
	return func(e computation.Event) bool { return in.truth[e.ID] }
}

// SingularFromCNF builds the Section 3.1 computation for a non-monotone
// 3-CNF formula: for each clause, one or two processes whose "true events"
// correspond to the clause's literal occurrences, with an arrow from the
// successor of every positive occurrence's true event to every conflicting
// negative occurrence's true event. The formula is satisfiable iff
// Possibly(Pred) holds on C.
func SingularFromCNF(f *cnf.Formula) (*SingularInstance, error) {
	if !f.IsNonMonotone3CNF() {
		return nil, ErrNotNonMonotone
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	in := &SingularInstance{
		C:       computation.New(),
		Pred:    &singular.Predicate{},
		NumVars: f.NumVars,
		truth:   make(map[computation.EventID]bool),
		lit:     make(map[computation.EventID]cnf.Lit),
	}
	// occurrences[v] collects the true events of positive and negative
	// occurrences of variable v.
	type occs struct{ pos, neg []computation.EventID }
	occ := make(map[int]*occs, f.NumVars)
	record := func(id computation.EventID, l cnf.Lit) {
		in.truth[id] = true
		in.lit[id] = l
		o := occ[l.Var()]
		if o == nil {
			o = &occs{}
			occ[l.Var()] = o
		}
		if l.Pos() {
			o.pos = append(o.pos, id)
		} else {
			o.neg = append(o.neg, id)
		}
	}
	// addLitProcess creates a two-event process t, f with t the true
	// event of literal l.
	addLitProcess := func(l cnf.Lit) computation.ProcID {
		p := in.C.AddProcess()
		t := in.C.AddInternal(p)
		in.C.AddInternal(p) // trailing false event
		in.C.SetLabel(t, l.String())
		record(t, l)
		return p
	}
	for ci, cl := range f.Clauses {
		if len(cl) == 0 {
			return nil, fmt.Errorf("reduction: clause %d is empty", ci)
		}
		var pcl singular.Clause
		switch len(cl) {
		case 1:
			p := addLitProcess(cl[0])
			pcl = singular.Clause{{Proc: p}}
		case 2:
			pa := addLitProcess(cl[0])
			pb := addLitProcess(cl[1])
			pcl = singular.Clause{{Proc: pa}, {Proc: pb}}
		case 3:
			// Pick one positive and one negative literal for the
			// shared process; the remaining literal gets its own.
			posIdx, negIdx := -1, -1
			for i, l := range cl {
				if l.Pos() && posIdx < 0 {
					posIdx = i
				}
				if !l.Pos() && negIdx < 0 {
					negIdx = i
				}
			}
			if posIdx < 0 || negIdx < 0 {
				return nil, fmt.Errorf("%w: clause %d has no mixed pair", ErrNotNonMonotone, ci)
			}
			restIdx := 0
			for restIdx == posIdx || restIdx == negIdx {
				restIdx++
			}
			pa := in.C.AddProcess()
			tp := in.C.AddInternal(pa)
			in.C.AddInternal(pa) // false event between the two true events
			tn := in.C.AddInternal(pa)
			in.C.SetLabel(tp, cl[posIdx].String())
			in.C.SetLabel(tn, cl[negIdx].String())
			record(tp, cl[posIdx])
			record(tn, cl[negIdx])
			pb := addLitProcess(cl[restIdx])
			pcl = singular.Clause{{Proc: pa}, {Proc: pb}}
		default:
			return nil, fmt.Errorf("%w: clause %d has %d literals", ErrNotNonMonotone, ci, len(cl))
		}
		in.Pred.Clauses = append(in.Pred.Clauses, pcl)
	}
	// Conflict arrows: successor of each positive occurrence's true event
	// -> each conflicting negative occurrence's true event. Pairs on the
	// same process are already mutually exclusive (a cut passes through
	// at most one event per process) and are skipped. Variables are
	// visited in sorted order so the constructed computation's message
	// set is inserted identically run to run.
	vars := make([]int, 0, len(occ))
	for v := range occ {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		o := occ[v]
		for _, tp := range o.pos {
			from := in.C.Next(tp)
			for _, tn := range o.neg {
				if in.C.Event(from).Proc == in.C.Event(tn).Proc {
					continue
				}
				if err := in.C.AddMessage(from, tn); err != nil {
					return nil, fmt.Errorf("reduction: conflict arrow: %w", err)
				}
			}
		}
	}
	if err := in.C.Seal(); err != nil {
		return nil, fmt.Errorf("reduction: constructed computation: %w", err)
	}
	return in, nil
}

// Assignment converts a detection witness (one true event per clause, as
// returned by the singular detectors) into a satisfying assignment of the
// source formula: each witness event's literal is made true and remaining
// variables default to false. The construction guarantees the result is
// consistent and satisfies the formula.
func (in *SingularInstance) Assignment(witness []computation.EventID) (cnf.Assignment, error) {
	a := make(cnf.Assignment, in.NumVars+1)
	forced := make([]bool, in.NumVars+1)
	for _, id := range witness {
		l, ok := in.lit[id]
		if !ok {
			return nil, fmt.Errorf("reduction: witness event %v is not a literal's true event", in.C.Event(id))
		}
		v := l.Var()
		if forced[v] && a[v] != l.Pos() {
			return nil, fmt.Errorf("reduction: witness assigns variable %d both ways", v)
		}
		a[v] = l.Pos()
		forced[v] = true
	}
	return a, nil
}

// SumVar is the variable name used by the subset-sum construction.
const SumVar = "x"

// RelsumFromSubsetSum builds the Section 4.1 computation: one process per
// element, whose single event sets its variable from 0 to the element's
// size (an arbitrary increment). Possibly(sum == target) on the result is
// equivalent to the subset-sum instance.
func RelsumFromSubsetSum(in subsetsum.Instance) *computation.Computation {
	c := computation.New()
	for _, size := range in.Sizes {
		p := c.AddProcess()
		id := c.AddInternal(p)
		c.SetVar(SumVar, id, size)
	}
	c.MustSeal()
	return c
}
