// Package singular implements detection of singular k-CNF predicates — the
// central objects of Mittal & Garg (ICDCS 2001). A predicate in CNF over
// boolean variables, one variable per process, is singular iff no two
// clauses contain variables of the same process. Detecting Possibly(phi)
// for singular 2-CNF predicates is NP-complete in general (Theorem 1); this
// package provides:
//
//   - the polynomial-time detector for receive-ordered and send-ordered
//     computations (Section 3.2, via Tarafdar & Garg's CPDSC technique
//     lifted to meta-processes),
//   - the general-case algorithms of Section 3.3: algorithm A tries every
//     selection of one process per clause (<= k^g CPDHB runs) and algorithm
//     B every selection of one chain per clause from a minimum chain cover
//     of the clause's true events (<= c^g runs, an exponential improvement
//     whenever the covers are small).
//
// All detectors answer the Possibly modality and return a witness cut when
// the predicate holds.
package singular

import (
	"errors"
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// Common errors returned by detectors.
var (
	// ErrNotSingular indicates a predicate violating the singularity
	// condition.
	ErrNotSingular = errors.New("singular: predicate is not singular")
	// ErrNotOrdered indicates that the computation is not
	// receive-ordered (or send-ordered) with respect to the predicate's
	// meta-processes, so the polynomial special-case algorithm does not
	// apply.
	ErrNotOrdered = errors.New("singular: computation is not receive-/send-ordered for this predicate")
)

// Literal is one literal of a clause: the boolean variable hosted by Proc,
// possibly negated.
type Literal struct {
	Proc    computation.ProcID
	Negated bool
}

// String renders the literal as "x(p3)" or "!x(p3)".
func (l Literal) String() string {
	if l.Negated {
		return fmt.Sprintf("!x(p%d)", l.Proc)
	}
	return fmt.Sprintf("x(p%d)", l.Proc)
}

// Clause is a disjunction of literals on distinct processes.
type Clause []Literal

// Predicate is a singular CNF predicate: a conjunction of clauses such
// that every process hosts at most one variable and occurs in at most one
// clause.
type Predicate struct {
	Clauses []Clause
}

// Truth supplies the value of the boolean variable hosted by the event's
// process in the local state following the event.
type Truth func(computation.Event) bool

// TruthFromTables converts per-process boolean tables (indexed by local
// event index) into a Truth function. Missing rows and indices read false.
func TruthFromTables(truth [][]bool) Truth {
	return func(e computation.Event) bool {
		p := int(e.Proc)
		return p < len(truth) && e.Index < len(truth[p]) && truth[p][e.Index]
	}
}

// Validate checks the singularity condition against a computation: every
// process occurs in at most one literal across all clauses, and all
// processes exist.
func (p *Predicate) Validate(c *computation.Computation) error {
	seen := make(map[computation.ProcID]int)
	for i, cl := range p.Clauses {
		if len(cl) == 0 {
			return fmt.Errorf("%w: clause %d is empty", ErrNotSingular, i)
		}
		for _, l := range cl {
			if int(l.Proc) < 0 || int(l.Proc) >= c.NumProcs() {
				return fmt.Errorf("singular: clause %d references unknown process %d", i, l.Proc)
			}
			if j, dup := seen[l.Proc]; dup {
				return fmt.Errorf("%w: process %d occurs in clauses %d and %d",
					ErrNotSingular, l.Proc, j, i)
			}
			seen[l.Proc] = i
		}
	}
	return nil
}

// trueEvents lists, for each clause, the events on the clause's processes
// whose literal evaluates true — the candidate representatives of
// Observation 1. Within each clause the events are in (process, index)
// order.
func (p *Predicate) trueEvents(c *computation.Computation, truth Truth) [][]computation.EventID {
	out := make([][]computation.EventID, len(p.Clauses))
	for i, cl := range p.Clauses {
		for _, l := range cl {
			neg := l.Negated
			for _, id := range c.ProcEvents(l.Proc) {
				if truth(c.Event(id)) != neg {
					out[i] = append(out[i], id)
				}
			}
		}
	}
	return out
}

// Holds evaluates the predicate at a consistent cut: every clause must have
// some literal true at the cut's frontier event on the literal's process.
func (p *Predicate) Holds(c *computation.Computation, truth Truth, k computation.Cut) bool {
	for _, cl := range p.Clauses {
		sat := false
		for _, l := range cl {
			e := c.EventAt(l.Proc, k[int(l.Proc)])
			if truth(e) != l.Negated {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// String renders the predicate in CNF notation.
func (p *Predicate) String() string {
	s := ""
	for i, cl := range p.Clauses {
		if i > 0 {
			s += " & "
		}
		s += "("
		for j, l := range cl {
			if j > 0 {
				s += " | "
			}
			s += l.String()
		}
		s += ")"
	}
	return s
}
