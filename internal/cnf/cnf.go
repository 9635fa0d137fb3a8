// Package cnf represents boolean formulas in conjunctive normal form and
// the formula transformations used by the paper's NP-hardness arguments, in
// particular the rewriting of an arbitrary 3-CNF formula into a
// "non-monotone" 3-CNF formula: one where every clause with exactly three
// literals contains at least one positive and one negative literal
// (Section 3.1 of Mittal & Garg).
package cnf

import (
	"errors"
	"fmt"
	"strings"
)

// Lit is a literal: variable v (numbered from 1) is the literal +v, its
// negation -v. Zero is not a valid literal.
type Lit int

// Var returns the variable of the literal (always positive).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Pos reports whether the literal is positive.
func (l Lit) Pos() bool { return l > 0 }

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// String renders the literal as "x3" or "!x3".
func (l Lit) String() string {
	if l < 0 {
		return fmt.Sprintf("!x%d", -l)
	}
	return fmt.Sprintf("x%d", int(l))
}

// Clause is a disjunction of literals.
type Clause []Lit

// String renders the clause as "(x1 | !x2)".
func (cl Clause) String() string {
	parts := make([]string, len(cl))
	for i, l := range cl {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// String renders the formula as a conjunction of clauses.
func (f *Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, cl := range f.Clauses {
		parts[i] = cl.String()
	}
	return strings.Join(parts, " & ")
}

// Assignment maps variables (1-based) to truth values; index 0 is unused.
type Assignment []bool

// Eval evaluates the formula under a complete assignment.
func (f *Formula) Eval(a Assignment) bool {
	for _, cl := range f.Clauses {
		sat := false
		for _, l := range cl {
			v := l.Var()
			if v < len(a) && a[v] == l.Pos() {
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

// Validate checks structural sanity: no zero literals, variables within
// range, no empty formula restrictions are imposed (an empty clause is
// allowed and simply unsatisfiable).
func (f *Formula) Validate() error {
	for i, cl := range f.Clauses {
		for _, l := range cl {
			if l == 0 {
				return fmt.Errorf("cnf: clause %d contains the zero literal", i)
			}
			if l.Var() > f.NumVars {
				return fmt.Errorf("cnf: clause %d references variable %d > NumVars %d", i, l.Var(), f.NumVars)
			}
		}
	}
	return nil
}

// MaxClauseLen returns the number of literals in the longest clause.
func (f *Formula) MaxClauseLen() int {
	max := 0
	for _, cl := range f.Clauses {
		if len(cl) > max {
			max = len(cl)
		}
	}
	return max
}

// IsNonMonotone3CNF reports whether the formula satisfies the paper's
// non-monotone condition: every clause has at most three literals and every
// clause with exactly three literals has at least one positive and one
// negative literal.
func (f *Formula) IsNonMonotone3CNF() bool {
	for _, cl := range f.Clauses {
		if len(cl) > 3 {
			return false
		}
		if len(cl) == 3 {
			pos, neg := false, false
			for _, l := range cl {
				if l.Pos() {
					pos = true
				} else {
					neg = true
				}
			}
			if !pos || !neg {
				return false
			}
		}
	}
	return true
}

// ToNonMonotone rewrites the formula into an equisatisfiable non-monotone
// 3-CNF formula using the paper's substitution: a clause of three positive
// literals (a | b | c) becomes (a | b | !z) & (z | c) & (!z | !c) where z
// is a fresh variable forced to equal !c; symmetrically for all-negative
// clauses. Clauses with at most two literals, or already mixed, are kept.
// Satisfying assignments of the result restrict to satisfying assignments
// of the original and vice versa.
//
// The input must be 3-CNF (clauses of at most three literals).
func ToNonMonotone(f *Formula) (*Formula, error) {
	if f.MaxClauseLen() > 3 {
		return nil, errors.New("cnf: ToNonMonotone requires a 3-CNF input")
	}
	out := &Formula{NumVars: f.NumVars}
	fresh := f.NumVars
	for _, cl := range f.Clauses {
		if len(cl) < 3 {
			out.Clauses = append(out.Clauses, append(Clause(nil), cl...))
			continue
		}
		pos, neg := 0, 0
		for _, l := range cl {
			if l.Pos() {
				pos++
			} else {
				neg++
			}
		}
		if pos > 0 && neg > 0 {
			out.Clauses = append(out.Clauses, append(Clause(nil), cl...))
			continue
		}
		// Monotone triple: introduce a fresh variable z equivalent to
		// the negation of the clause's last literal, and replace that
		// literal with the z-literal of the opposite sign. The new
		// three-literal clause is mixed, and the two binary forcing
		// clauses make the substitution exact, so satisfiability is
		// preserved in both directions.
		fresh++
		z := Lit(fresh)
		a, b, c := cl[0], cl[1], cl[2]
		var repl Lit
		var force1, force2 Clause
		if c.Pos() {
			// All positive: use !z with z forced to equal !c.
			repl = z.Neg()
			force1 = Clause{z, c}
			force2 = Clause{z.Neg(), c.Neg()}
		} else {
			// All negative: use z with z forced to equal c (i.e. the
			// negation of c's underlying variable).
			repl = z
			force1 = Clause{z, c.Neg()}
			force2 = Clause{z.Neg(), c}
		}
		out.Clauses = append(out.Clauses,
			Clause{a, b, repl},
			force1,
			force2,
		)
	}
	out.NumVars = fresh
	return out, nil
}

// RestrictAssignment drops the auxiliary variables introduced by
// ToNonMonotone, returning an assignment over the original n variables.
func RestrictAssignment(a Assignment, n int) Assignment {
	out := make(Assignment, n+1)
	copy(out, a[:min(len(a), n+1)])
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
