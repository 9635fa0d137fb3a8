package relsum

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/maxflow"
)

const varName = "x"

// unitStepComputation builds a random computation whose variable x changes
// by -1, 0 or +1 at every event.
// possibly is PossiblyPar run sequentially, untraced, for the verdict alone.
func possibly(c *computation.Computation, name string, r Relop, k int64) (bool, error) {
	holds, _, _, _, err := PossiblyPar(c, name, r, k, 1, nil)
	return holds, err
}

func unitStepComputation(rng *rand.Rand, np, me, msgs int) *computation.Computation {
	c := computation.New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		v := int64(rng.Intn(3) - 1)
		c.SetVar(varName, c.Initial(computation.ProcID(p)).ID, v)
		n := 1 + rng.Intn(me)
		for i := 0; i < n; i++ {
			id := c.AddInternal(computation.ProcID(p))
			v += int64(rng.Intn(3) - 1)
			c.SetVar(varName, id, v)
		}
	}
	for tries := 0; tries < msgs; tries++ {
		p := computation.ProcID(rng.Intn(np))
		q := computation.ProcID(rng.Intn(np))
		if p == q {
			continue
		}
		i := 1 + rng.Intn(c.Len(p)-1)
		j := 1 + rng.Intn(c.Len(q)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
		}
	}
	return c.MustSeal()
}

func TestSumRangeMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 150; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(3), 4, 10)
		wantMin, wantMax := lattice.SumRange(c, varName)
		gotMin, gotMax := SumRange(c, varName)
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("trial %d: SumRange = [%d,%d], lattice = [%d,%d]",
				trial, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

func TestSumRangeArbitrarySteps(t *testing.T) {
	// The closure computation must be exact regardless of step sizes.
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 100; trial++ {
		c := computation.New()
		np := 2 + rng.Intn(2)
		for p := 0; p < np; p++ {
			c.AddProcess()
			v := int64(rng.Intn(21) - 10)
			c.SetVar(varName, c.Initial(computation.ProcID(p)).ID, v)
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				id := c.AddInternal(computation.ProcID(p))
				v += int64(rng.Intn(11) - 5)
				c.SetVar(varName, id, v)
			}
		}
		for tries := 0; tries < 8; tries++ {
			p := computation.ProcID(rng.Intn(np))
			q := computation.ProcID(rng.Intn(np))
			if p == q {
				continue
			}
			i := 1 + rng.Intn(c.Len(p)-1)
			j := 1 + rng.Intn(c.Len(q)-1)
			if i < j {
				_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
			}
		}
		c.MustSeal()
		wantMin, wantMax := lattice.SumRange(c, varName)
		gotMin, gotMax := SumRange(c, varName)
		if gotMin != wantMin || gotMax != wantMax {
			t.Fatalf("trial %d: SumRange = [%d,%d], lattice = [%d,%d]",
				trial, gotMin, gotMax, wantMin, wantMax)
		}
	}
}

func TestPossiblyMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	relops := []Relop{Lt, Le, Eq, Ge, Gt, Ne}
	for trial := 0; trial < 120; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(3), 4, 8)
		k := int64(rng.Intn(9) - 4)
		for _, r := range relops {
			got, err := possibly(c, varName, r, k)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, r, err)
			}
			want, _ := lattice.Possibly(c, sumOf(c, varName).region(r, k))
			if got != want {
				t.Fatalf("trial %d: Possibly(S %v %d) = %v, oracle = %v", trial, r, k, got, want)
			}
		}
	}
}

func TestPossiblyEqWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 120; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(3), 4, 8)
		k := int64(rng.Intn(9) - 4)
		ok, cut, _, _, err := PossiblyPar(c, varName, Eq, k, 1, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, _ := lattice.Possibly(c, sumOf(c, varName).region(Eq, k))
		if ok != want {
			t.Fatalf("trial %d: witness search = %v, oracle = %v", trial, ok, want)
		}
		if ok {
			if !c.CutConsistent(cut) {
				t.Fatalf("trial %d: witness cut %v inconsistent", trial, cut)
			}
			if got := c.SumVar(varName, cut); got != k {
				t.Fatalf("trial %d: witness sum = %d, want %d", trial, got, k)
			}
		}
	}
}

func TestDefinitelyMatchesLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	relops := []Relop{Lt, Le, Eq, Ge, Gt, Ne}
	for trial := 0; trial < 80; trial++ {
		c := unitStepComputation(rng, 2+rng.Intn(2), 4, 6)
		k := int64(rng.Intn(7) - 3)
		for _, r := range relops {
			got, err := DefinitelyPar(c, varName, r, k, 1, nil)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, r, err)
			}
			want := lattice.Definitely(c, sumOf(c, varName).region(r, k))
			if got != want {
				t.Fatalf("trial %d: Definitely(S %v %d) = %v, oracle = %v", trial, r, k, got, want)
			}
		}
	}
}

// TestTheorem4IntermediateValue validates the paper's Theorem 4 as a
// property: along any lattice path of a unit-step computation, S takes
// every value between its endpoint values.
func TestTheorem4IntermediateValue(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 60; trial++ {
		c := unitStepComputation(rng, 3, 4, 8)
		// Random path from bottom to top.
		cur := c.InitialCut()
		seen := map[int64]bool{c.SumVar(varName, cur): true}
		lo := c.SumVar(varName, cur)
		hi := lo
		for !cur.Equal(c.FinalCut()) {
			en := c.Enabled(cur)
			id := en[rng.Intn(len(en))]
			cur = c.Execute(cur, c.Event(id).Proc)
			s := c.SumVar(varName, cur)
			seen[s] = true
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		for v := lo; v <= hi; v++ {
			if !seen[v] {
				t.Fatalf("trial %d: path range [%d,%d] skips %d", trial, lo, hi, v)
			}
		}
	}
}

func TestArbitraryStepEqRejected(t *testing.T) {
	c := computation.New()
	p := c.AddProcess()
	id := c.AddInternal(p)
	c.SetVar(varName, id, 5) // jump of 5
	c.MustSeal()
	if _, err := possibly(c, varName, Eq, 3); !errors.Is(err, ErrNotUnitStep) {
		t.Errorf("Possibly Eq: err = %v, want ErrNotUnitStep", err)
	}
	if _, err := DefinitelyPar(c, varName, Eq, 3, 1, nil); !errors.Is(err, ErrNotUnitStep) {
		t.Errorf("Definitely Eq: err = %v, want ErrNotUnitStep", err)
	}
	// Order operators remain exact with arbitrary steps.
	ok, err := possibly(c, varName, Ge, 5)
	if err != nil || !ok {
		t.Errorf("Possibly Ge = %v, %v; want true", ok, err)
	}
}

func TestMaxStepAndValidate(t *testing.T) {
	c := computation.New()
	p := c.AddProcess()
	a := c.AddInternal(p)
	b := c.AddInternal(p)
	c.SetVar(varName, a, 1)
	c.SetVar(varName, b, -1) // step of -2
	c.MustSeal()
	// The error names the variable and the offending step.
	if err := ValidateUnitStep(c, varName); !errors.Is(err, ErrNotUnitStep) ||
		!strings.Contains(err.Error(), fmt.Sprintf("changes %q by -2", varName)) {
		t.Errorf("ValidateUnitStep err = %v", err)
	}
	// A unit-step variable passes.
	if err := ValidateUnitStep(c, "missing"); err != nil {
		t.Errorf("all-zero variable must validate: %v", err)
	}
}

func TestRelopParseAndString(t *testing.T) {
	for _, s := range []string{"<", "<=", "==", ">=", ">", "!="} {
		r, err := ParseRelop(s)
		if err != nil {
			t.Fatalf("ParseRelop(%q): %v", s, err)
		}
		if got := r.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if r, err := ParseRelop("="); err != nil || r != Eq {
		t.Errorf("ParseRelop(=) = %v, %v", r, err)
	}
	if _, err := ParseRelop("<>"); err == nil {
		t.Error("ParseRelop(<>) must fail")
	}
	if got := Relop(42).String(); got != "relop(42)" {
		t.Errorf("unknown relop String = %q", got)
	}
}

func TestRelopEval(t *testing.T) {
	cases := []struct {
		r    Relop
		s, k int64
		want bool
	}{
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Eq, 2, 2, true}, {Eq, 1, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ne, 1, 2, true}, {Ne, 2, 2, false},
		{Relop(42), 1, 1, false},
	}
	for _, tc := range cases {
		if got := tc.r.Eval(tc.s, tc.k); got != tc.want {
			t.Errorf("Eval(%d %v %d) = %v, want %v", tc.s, tc.r, tc.k, got, tc.want)
		}
	}
}

func TestTokenConservationExample(t *testing.T) {
	// Three processes passing two tokens: x counts tokens held. Verify
	// Possibly(S = 2) at every cut (conservation) and the derived facts.
	c := computation.New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	p2 := c.AddProcess()
	c.SetVar(varName, c.Initial(p0).ID, 2)
	// p0 sends one token to p1; p1 forwards it to p2.
	s1 := c.AddInternal(p0)
	c.SetVar(varName, s1, 1)
	r1 := c.AddInternal(p1)
	c.SetVar(varName, r1, 1)
	s2 := c.AddInternal(p1)
	c.SetVar(varName, s2, 0)
	r2 := c.AddInternal(p2)
	c.SetVar(varName, r2, 1)
	if err := c.AddMessage(s1, r1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMessage(s2, r2); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	min, max := SumRange(c, varName)
	// While a token is in flight the observed sum drops to 1, but the
	// two transfers cannot overlap (p1 forwards only after receiving),
	// so the sum never reaches 0 and never exceeds 2.
	if max != 2 {
		t.Errorf("max = %d, want 2", max)
	}
	if min != 1 {
		t.Errorf("min = %d, want 1 (one token in flight at a time)", min)
	}
	ok, err := possibly(c, varName, Eq, 1)
	if err != nil || !ok {
		t.Errorf("Possibly(S=1) = %v, %v", ok, err)
	}
	def, err := DefinitelyPar(c, varName, Le, 1, 1, nil)
	if err != nil || !def {
		t.Errorf("Definitely(S<=1) = %v, %v; every run observes a token in flight", def, err)
	}
}

// TestStepBounds: Step is the one place a per-event change is formed,
// and must flag everything past maxflow.MaxWeight — including the
// differences that wrap int64 back into range.
func TestStepBounds(t *testing.T) {
	const big = maxflow.MaxWeight
	for _, tc := range []struct {
		after, before int64
		ok            bool
	}{
		{5, 3, true}, {-big, 0, true}, {big, 0, true}, {big / 2, -big / 2, true},
		{big + 1, 0, false}, {0, big + 1, false},
		{math.MaxInt64, math.MinInt64, false}, // wraps to -1
		{math.MinInt64, math.MaxInt64, false}, // wraps to +1
		{1 << 62, -1 << 62, false},            // wraps to MinInt64
	} {
		d, err := Step(tc.after, tc.before)
		if tc.ok && (err != nil || d != tc.after-tc.before) {
			t.Errorf("Step(%d, %d) = %d, %v; want the difference", tc.after, tc.before, d, err)
		}
		if !tc.ok && (!errors.Is(err, ErrStepTooLarge) || (d > 0) != (tc.after > tc.before) || (d <= big && d >= -big)) {
			t.Errorf("Step(%d, %d) = %d, %v; want ErrStepTooLarge and a saturated change of the right sign", tc.after, tc.before, d, err)
		}
	}
}
