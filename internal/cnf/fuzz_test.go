package cnf

import (
	"strings"
	"testing"
)

// FuzzParseDIMACS hardens the DIMACS parser: it must never panic, and any
// accepted formula must survive a print/parse round trip unchanged.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("c comment\n1 0")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf x y\n")
	f.Add("1 2 -3 0 4 0")
	f.Add("")
	f.Add("p cnf 2 1\n1 99 0\n")
	f.Add(strings.Repeat("1 ", 100) + "0")
	f.Fuzz(func(t *testing.T, in string) {
		formula, err := ParseDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		again, err := ParseDIMACS(strings.NewReader(dimacs(formula)))
		if err != nil {
			t.Fatalf("reparse of own encoding: %v", err)
		}
		if again.NumVars != formula.NumVars || len(again.Clauses) != len(formula.Clauses) {
			t.Fatalf("round trip changed shape")
		}
		for i := range formula.Clauses {
			if len(formula.Clauses[i]) != len(again.Clauses[i]) {
				t.Fatalf("clause %d length changed", i)
			}
			for j := range formula.Clauses[i] {
				if formula.Clauses[i][j] != again.Clauses[i][j] {
					t.Fatalf("clause %d literal %d changed", i, j)
				}
			}
		}
	})
}

// FuzzToNonMonotone checks the rewrite never panics and always produces a
// non-monotone formula or an error on arbitrary small formulas.
func FuzzToNonMonotone(f *testing.F) {
	f.Add(uint16(0x1234), uint8(3), uint8(4))
	f.Add(uint16(0xffff), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, bits uint16, nvRaw, ncRaw uint8) {
		nv := int(nvRaw%6) + 1
		nc := int(ncRaw % 8)
		formula := &Formula{NumVars: nv}
		x := uint32(bits) + 1
		next := func(n int) int {
			x = x*1664525 + 1013904223
			return int(x>>16) % n
		}
		for i := 0; i < nc; i++ {
			n := next(3) + 1
			cl := make(Clause, 0, n)
			for j := 0; j < n; j++ {
				l := Lit(next(nv) + 1)
				if next(2) == 0 {
					l = l.Neg()
				}
				cl = append(cl, l)
			}
			formula.Clauses = append(formula.Clauses, cl)
		}
		out, err := ToNonMonotone(formula)
		if err != nil {
			t.Fatalf("3-CNF input rejected: %v", err)
		}
		if !out.IsNonMonotone3CNF() {
			t.Fatalf("output not non-monotone: %v", out)
		}
	})
}
