package cnf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := Lit(3)
	if l.Var() != 3 || !l.Pos() {
		t.Fatalf("Lit(3): Var=%d Pos=%v", l.Var(), l.Pos())
	}
	n := l.Neg()
	if n.Var() != 3 || n.Pos() {
		t.Fatalf("Neg: Var=%d Pos=%v", n.Var(), n.Pos())
	}
	if l.String() != "x3" || n.String() != "!x3" {
		t.Fatalf("String: %q %q", l.String(), n.String())
	}
}

func TestEval(t *testing.T) {
	f := &Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {2, 3}}}
	// x1=T x2=T x3=F: (T|F)=T, (T|F)=T.
	if !f.Eval(Assignment{false, true, true, false}) {
		t.Error("expected satisfied")
	}
	// x1=F x2=T x3=F: (F|F)=F.
	if f.Eval(Assignment{false, false, true, false}) {
		t.Error("expected falsified")
	}
}

func TestValidate(t *testing.T) {
	good := &Formula{NumVars: 2, Clauses: []Clause{{1, -2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	zero := &Formula{NumVars: 2, Clauses: []Clause{{0}}}
	if err := zero.Validate(); err == nil {
		t.Error("Validate must reject the zero literal")
	}
	outOfRange := &Formula{NumVars: 2, Clauses: []Clause{{5}}}
	if err := outOfRange.Validate(); err == nil {
		t.Error("Validate must reject out-of-range variables")
	}
}

func TestIsNonMonotone3CNF(t *testing.T) {
	cases := []struct {
		f    Formula
		want bool
	}{
		{Formula{NumVars: 3, Clauses: []Clause{{1, 2, 3}}}, false},    // all positive
		{Formula{NumVars: 3, Clauses: []Clause{{-1, -2, -3}}}, false}, // all negative
		{Formula{NumVars: 3, Clauses: []Clause{{1, -2, 3}}}, true},    // mixed
		{Formula{NumVars: 3, Clauses: []Clause{{1, 2}}}, true},        // short clause
		{Formula{NumVars: 4, Clauses: []Clause{{1, -2, 3, 4}}}, false},
	}
	for i, tc := range cases {
		if got := tc.f.IsNonMonotone3CNF(); got != tc.want {
			t.Errorf("case %d: IsNonMonotone3CNF = %v, want %v", i, got, tc.want)
		}
	}
}

func bruteSat(f *Formula) (bool, Assignment) {
	n := f.NumVars
	for mask := 0; mask < 1<<n; mask++ {
		a := make(Assignment, n+1)
		for v := 1; v <= n; v++ {
			a[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(a) {
			return true, a
		}
	}
	return false, nil
}

func randomFormula(rng *rand.Rand, nv, nc, maxLen int) *Formula {
	f := &Formula{NumVars: nv}
	for i := 0; i < nc; i++ {
		n := 1 + rng.Intn(maxLen)
		cl := make(Clause, 0, n)
		for j := 0; j < n; j++ {
			v := 1 + rng.Intn(nv)
			l := Lit(v)
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

func TestToNonMonotonePreservesSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 300; trial++ {
		f := randomFormula(rng, 2+rng.Intn(6), 1+rng.Intn(8), 3)
		g, err := ToNonMonotone(f)
		if err != nil {
			t.Fatalf("ToNonMonotone: %v", err)
		}
		if !g.IsNonMonotone3CNF() {
			t.Fatalf("result not non-monotone: %v", g)
		}
		fs, _ := bruteSat(f)
		gs, ga := bruteSat(g)
		if fs != gs {
			t.Fatalf("trial %d: sat(%v)=%v but sat(transformed)=%v", trial, f, fs, gs)
		}
		if gs {
			// The restriction of a satisfying assignment must satisfy f.
			ra := RestrictAssignment(ga, f.NumVars)
			if !f.Eval(ra) {
				t.Fatalf("trial %d: restricted assignment does not satisfy original", trial)
			}
		}
	}
}

func TestToNonMonotoneRejectsLongClauses(t *testing.T) {
	f := &Formula{NumVars: 4, Clauses: []Clause{{1, 2, 3, 4}}}
	if _, err := ToNonMonotone(f); err == nil {
		t.Error("expected error for clause longer than 3")
	}
}

// dimacs prints a formula in the DIMACS CNF format ParseDIMACS reads.
func dimacs(f *Formula) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, cl := range f.Clauses {
		for _, l := range cl {
			fmt.Fprintf(&b, "%d ", int(l))
		}
		b.WriteString("0\n")
	}
	return b.String()
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 30; trial++ {
		f := randomFormula(rng, 1+rng.Intn(8), 1+rng.Intn(10), 4)
		g, err := ParseDIMACS(strings.NewReader(dimacs(f)))
		if err != nil {
			t.Fatalf("ParseDIMACS: %v", err)
		}
		if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
			t.Fatalf("shape: got %d/%d want %d/%d", g.NumVars, len(g.Clauses), f.NumVars, len(f.Clauses))
		}
		for i := range f.Clauses {
			if len(f.Clauses[i]) != len(g.Clauses[i]) {
				t.Fatalf("clause %d length differs", i)
			}
			for j := range f.Clauses[i] {
				if f.Clauses[i][j] != g.Clauses[i][j] {
					t.Fatalf("clause %d literal %d differs", i, j)
				}
			}
		}
	}
}

func TestParseDIMACSFeatures(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
c mid comment
2 3
0
`
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseDIMACS: %v", err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("got %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	if f.Clauses[1][1] != Lit(3) {
		t.Fatalf("clause parse wrong: %v", f.Clauses)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for _, in := range []string{
		"p cnf x 2\n1 0\n",
		"p cnf 2 5\n1 0\n", // wrong clause count
		"1 q 0\n",
	} {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("ParseDIMACS(%q): expected error", in)
		}
	}
}

func TestParseDIMACSNoHeader(t *testing.T) {
	f, err := ParseDIMACS(strings.NewReader("1 -4 0\n2 0"))
	if err != nil {
		t.Fatalf("ParseDIMACS: %v", err)
	}
	if f.NumVars != 4 || len(f.Clauses) != 2 {
		t.Fatalf("got %d vars, %d clauses", f.NumVars, len(f.Clauses))
	}
}

func TestFormulaString(t *testing.T) {
	f := &Formula{NumVars: 2, Clauses: []Clause{{1, -2}, {2}}}
	if got := f.String(); got != "(x1 | !x2) & (x2)" {
		t.Errorf("String = %q", got)
	}
}
