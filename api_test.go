package gpd_test

// Agreement tests for the gpd.Detect front door: on random computations,
// Detect must give the same verdicts as the exhaustive lattice oracles
// (PossiblyGeneric / DefinitelyGeneric evaluating the spec cut by cut),
// across both modalities. Also: grammar round-trips and cross-surface
// spec equivalence with the streaming wire protocol.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	gpd "github.com/distributed-predicates/gpd"
	idetect "github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// randomComputation builds a small random computation with a 0/1 variable
// "x" and a unit-step integer variable "u".
func randomComputation(seed int64) *gpd.Computation {
	c := gen.Random(gen.Params{Seed: seed, Procs: 4, Events: 5, MsgFrac: 1.0})
	gen.BoolVar(seed+1, c, "x", 0.4)
	gen.UnitStepVar(seed+2, c, "u")
	return c
}

// detect runs the front door and fails the test on error.
func detect(t *testing.T, c *gpd.Computation, pred string, opts ...gpd.Option) gpd.Report {
	t.Helper()
	spec, err := gpd.ParseSpec(pred)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", pred, err)
	}
	rep, err := gpd.Detect(c, spec, opts...)
	if err != nil {
		t.Fatalf("Detect(%q): %v", pred, err)
	}
	return rep
}

// definitely is the option selecting the strong modality.
var definitely = gpd.WithModality(gpd.ModalityDefinitely)

// registeredFamilies lists the families of the detector registry (the
// family constants are contiguous from FamilyConjunctive).
func registeredFamilies() []gpd.SpecFamily {
	var out []gpd.SpecFamily
	for f := gpd.FamilyConjunctive; ; f++ {
		if _, ok := idetect.Lookup(f, gpd.ModalityPossibly); !ok {
			return out
		}
		out = append(out, f)
	}
}

// cutInFlight counts messages sent but not yet received in the cut.
func cutInFlight(c *gpd.Computation, k gpd.Cut) int64 {
	var n int64
	for _, m := range c.Messages() {
		if k.Contains(c.Event(m.Send)) && !k.Contains(c.Event(m.Receive)) {
			n++
		}
	}
	return n
}

// specHolds is the spec as a predicate on one consistent cut — what the
// exhaustive lattice oracles evaluate.
func specHolds(s gpd.Spec) gpd.GlobalPredicate {
	return func(c *gpd.Computation, k gpd.Cut) bool {
		truth := func(e gpd.Event) bool { return c.Var(s.Var, e.ID) != 0 }
		count := c.CountTrue(k, truth)
		switch s.Family {
		case gpd.FamilyConjunctive:
			return count == c.NumProcs()
		case gpd.FamilyEquilevel:
			return count == c.NumProcs() && int64(k.Size()) == s.K
		case gpd.FamilySum:
			return s.Rel.Eval(c.SumVar(s.Var, k), s.K)
		case gpd.FamilyCount:
			return s.Rel.Eval(int64(count), s.K)
		case gpd.FamilyXor:
			return count%2 == 1
		case gpd.FamilyLevels:
			for _, m := range s.Levels {
				if m == count {
					return true
				}
			}
			return false
		case gpd.FamilyInFlight:
			return s.Rel.Eval(cutInFlight(c, k), s.K)
		case gpd.FamilyCNF:
			front := c.Frontier(k)
			for _, cl := range s.Clauses {
				sat := false
				for _, l := range cl {
					sat = sat || truth(c.Event(front[l.Proc])) != l.Negated
				}
				if !sat {
					return false
				}
			}
			return true
		}
		panic(fmt.Sprintf("specHolds: unknown family %v", s.Family))
	}
}

// agreesWithLattice checks Detect against the lattice oracle under both
// modalities, and that a Possibly witness is a consistent satisfying cut.
func agreesWithLattice(t *testing.T, label string, c *gpd.Computation, pred string) {
	t.Helper()
	rep := detect(t, c, pred)
	holds := specHolds(rep.Spec)
	if oracle, _ := gpd.PossiblyGeneric(c, holds); rep.Holds != oracle {
		t.Errorf("%s: Possibly(%s): Detect %v, lattice %v", label, pred, rep.Holds, oracle)
	}
	if rep.Witness != nil && !(c.CutConsistent(rep.Witness) && holds(c, rep.Witness)) {
		t.Errorf("%s: witness %v does not satisfy %s", label, rep.Witness, pred)
	}
	if oracle := gpd.DefinitelyGeneric(c, holds); detect(t, c, pred, definitely).Holds != oracle {
		t.Errorf("%s: Definitely(%s): Detect %v, lattice %v", label, pred, !oracle, oracle)
	}
}

func TestDetectAgreesConjunctive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		agreesWithLattice(t, fmt.Sprint("seed ", seed), randomComputation(seed), "all(x)")
	}
}

func TestDetectAgreesSum(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := randomComputation(seed)
		for _, rel := range []string{"<", "<=", "==", ">=", ">", "!="} {
			for _, k := range []int64{-2, 0, 2} {
				agreesWithLattice(t, fmt.Sprint("seed ", seed), c, fmt.Sprintf("sum(u) %s %d", rel, k))
			}
		}
	}
}

func TestDetectAgreesSymmetric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomComputation(seed)
		for _, pred := range []string{"count(x) >= 2", "count(x) == 0", "xor(x)", "levels(x): 0, 2"} {
			agreesWithLattice(t, fmt.Sprint("seed ", seed), c, pred)
		}
	}
}

func TestDetectAgreesCNF(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		agreesWithLattice(t, fmt.Sprint("seed ", seed), randomComputation(seed), "cnf(x): (0 | !1) & (2 | 3)")
	}
}

// TestDetectAgreesEquilevel also validates the Garg & Streit collapse on
// the Definitely side: every run passes exactly one cut per level, so
// inevitability is "the level set is non-empty and unanimous".
func TestDetectAgreesEquilevel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomComputation(seed)
		for _, level := range []int64{0, 1, 2, 3, 5, 8, 100} {
			agreesWithLattice(t, fmt.Sprint("seed ", seed), c, fmt.Sprintf("equilevel(x): %d", level))
		}
	}
}

// ringComputation simulates a token ring: every event sends or receives
// at most one message, so the in-flight weight is unit-step as the Eq
// detector requires (the random generator can pack several messages onto
// one event).
func ringComputation(t *testing.T, seed int64) *gpd.Computation {
	t.Helper()
	sim := gpd.NewSimulator(seed, gpd.NewTokenRingProcs(4, 2, 1, 3))
	c, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDetectAgreesInFlight(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := ringComputation(t, seed+1)
		for _, rel := range []string{"<", "<=", "==", ">=", ">", "!="} {
			for _, k := range []int64{0, 1, 3} {
				agreesWithLattice(t, fmt.Sprint("seed ", seed), c, fmt.Sprintf("inflight %s %d", rel, k))
			}
		}
	}
}

// TestDetectWitnessesSatisfy: every cut-constructing family returns a
// witness whenever Possibly holds (agreesWithLattice checks that each
// witness is a consistent satisfying cut).
func TestDetectWitnessesSatisfy(t *testing.T) {
	check := func(c *gpd.Computation, preds ...string) {
		for _, pred := range preds {
			if rep := detect(t, c, pred); rep.Holds && rep.Witness == nil {
				t.Errorf("Possibly(%s) holds without a witness", pred)
			}
			agreesWithLattice(t, "witness", c, pred)
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		check(randomComputation(seed), "all(x)", "sum(u) == 0", "count(x) >= 2", "xor(x)", "levels(x): 1, 3")
	}
	for seed := int64(0); seed < 3; seed++ {
		check(ringComputation(t, seed+1), "inflight == 1")
	}
}

// TestDetectRejectsUnsealed: the precondition of every route lives at the
// front door — a nil or unsealed computation is an error for every
// registered (family, modality, strategy), never a panic and never a
// verdict that depends on whether the family's kernel happens to seal a
// private clone.
func TestDetectRejectsUnsealed(t *testing.T) {
	preds := map[gpd.SpecFamily]string{
		gpd.FamilyConjunctive: "all(x)", gpd.FamilySum: "sum(x) >= 1", gpd.FamilyCount: "count(x) >= 1",
		gpd.FamilyXor: "xor(x)", gpd.FamilyLevels: "levels(x): 1", gpd.FamilyCNF: "cnf(x): (0 | 1)",
		gpd.FamilyInFlight: "inflight >= 0", gpd.FamilyEquilevel: "equilevel(x): 1",
	}
	unsealed := gpd.New()
	unsealed.SetVar("x", unsealed.AddInternal(unsealed.AddProcess()), 1)
	unsealed.AddInternal(unsealed.AddProcess())
	for _, f := range registeredFamilies() {
		spec, err := gpd.ParseSpec(preds[f])
		if err != nil {
			t.Fatalf("family %v: no example predicate: %v", f, err)
		}
		for _, m := range []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely} {
			for _, route := range []gpd.DetectStrategy{gpd.StrategyBatch, gpd.StrategyReplay, gpd.StrategySlice} {
				for name, c := range map[string]*gpd.Computation{"nil": nil, "unsealed": unsealed} {
					if _, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithStrategy(route)); err == nil ||
						!strings.Contains(err.Error(), "sealed computation") {
						t.Errorf("%v/%v/%v on a %s computation: err = %v, want the sealed-computation error", f, m, route, name, err)
					}
				}
			}
		}
	}
}

// TestDetectRejectsHugeStep: a variable jumping by 2^62 at one event is
// past what the closure kernels represent — at 2^61 their unbounded
// arcs become cuttable (this computation's true maximum is 0, the
// kernel used to say 2^61+1), beyond that the per-event difference
// wraps. Every sum route must say so, never return a verdict.
func TestDetectRejectsHugeStep(t *testing.T) {
	c := gpd.New()
	p0, p1 := c.AddProcess(), c.AddProcess()
	down, up := c.AddInternal(p0), c.AddInternal(p1)
	c.SetVar("x", down, -1<<62)
	c.SetVar("x", up, 1<<62)
	if err := c.AddMessage(down, up); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	for _, pred := range []string{"sum(x) >= 1", "sum(x) == 1"} {
		spec, err := gpd.ParseSpec(pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []gpd.Modality{gpd.ModalityPossibly, gpd.ModalityDefinitely} {
			for _, route := range []gpd.DetectStrategy{gpd.StrategyBatch, gpd.StrategyReplay} {
				res, err := gpd.Detect(c, spec, gpd.WithModality(m), gpd.WithStrategy(route))
				if !errors.Is(err, gpd.ErrStepTooLarge) {
					t.Errorf("%s %v/%v: result %+v, err %v; want ErrStepTooLarge", pred, m, route, res, err)
				}
			}
		}
	}
}

// TestDetectRejectsStrategyMisuse: WithStrategy is only meaningful for
// cnf under possibly; everything else must be an explicit error, not a
// silent ignore.
func TestDetectRejectsStrategyMisuse(t *testing.T) {
	c := randomComputation(1)
	sum, _ := gpd.ParseSpec("sum(u) == 0")
	if _, err := gpd.Detect(c, sum, gpd.WithStrategy(gpd.StrategyChainCover)); err == nil {
		t.Error("strategy on a sum predicate must error")
	}
	cnf, _ := gpd.ParseSpec("cnf(x): (0 | 1)")
	if _, err := gpd.Detect(c, cnf, gpd.WithStrategy(gpd.StrategyChainCover),
		gpd.WithModality(gpd.ModalityDefinitely)); err == nil {
		t.Error("strategy under definitely must error")
	}
	if _, err := gpd.Detect(c, cnf, gpd.WithStrategy(gpd.StrategyChainCover)); err != nil {
		t.Errorf("strategy on cnf possibly must be accepted: %v", err)
	}
}

// TestSpecRoundTrip: String output of every family re-parses to an equal
// spec — the property that keeps all surfaces on one grammar.
func TestSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"all(x)",
		"sum(x) >= 2",
		"sum(tokens) == 0",
		"count(x) != 1",
		"xor(x)",
		"levels(x): 0, 2, 4",
		"inflight == 1",
		"inflight < 3",
		"cnf(x): (0 | !1) & (2 | 3)",
	} {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		again, err := gpd.ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", spec.String(), text, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("round trip of %q: %+v != %+v", text, spec, again)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %q: %v", text, err)
		}
		var fromJSON gpd.Spec
		if err := json.Unmarshal(blob, &fromJSON); err != nil {
			t.Fatalf("unmarshal %s (from %q): %v", blob, text, err)
		}
		if !reflect.DeepEqual(spec, fromJSON) {
			t.Errorf("JSON round trip of %q via %s: %+v != %+v", text, blob, spec, fromJSON)
		}
	}
}

// TestStreamSpecMatchesCanonical: the wire protocol's Spec carries the
// grammar string itself, so it converts to the same canonical Spec the
// grammar produces and the online and offline surfaces cannot drift
// apart.
func TestStreamSpecMatchesCanonical(t *testing.T) {
	for _, text := range []string{"all(x)", "sum(x) == 5", "levels(x): 0, 2"} {
		wire := stream.Spec{Pred: text, Procs: 3}
		got, err := wire.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", wire, err)
		}
		want, err := gpd.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream pred %q: Canonical() = %+v, want %+v", text, got, want)
		}
		if got.String() != text {
			t.Errorf("stream pred %q renders %q", text, got.String())
		}
	}
	// Family-shape validation is delegated to the canonical spec.
	bad := stream.Spec{Pred: "levels(x): 4", Procs: 3}
	if err := bad.Validate(); err == nil {
		t.Error("a level beyond the process count must fail validation")
	}
}

// FuzzParseSpec fuzzes the canonical predicate grammar round-trip:
// whatever ParseSpec accepts must render with String() to text that
// re-parses to the identical Spec (a fixpoint), without ever panicking.
// Every surface of the repository (Detect, gpddetect, the streaming
// wire protocol) trusts this property when it echoes specs around.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"all(x)",
		"xor(ready)",
		"sum(u) >= 7",
		"sum(u) == 0",
		"count(x) < 2",
		"levels(x): 0, 2, 4",
		"inflight > 3",
		"cnf(x): (0 | !1) & (2)",
		"cnf(x): (!0)",
		"  all( spaced )  ",
		"levels(v): +1",
		"sum(v) >= 9223372036854775807",
		"all()",
		"levels(x):",
		"cnf(x): (0 | 0)",
		"nonsense",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := gpd.ParseSpec(text)
		if err != nil {
			return // rejected input: only panics are bugs here
		}
		rendered := spec.String()
		again, err := gpd.ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but rendering %q does not re-parse: %v", text, rendered, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round-trip fixpoint broken: %q -> %#v -> %q -> %#v", text, spec, rendered, again)
		}
		if r2 := again.String(); r2 != rendered {
			t.Fatalf("String not stable: %q then %q (from %q)", rendered, r2, text)
		}
	})
}
