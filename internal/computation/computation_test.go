package computation

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// diamond builds the classic two-process computation:
//
//	p0: i0 - a - b
//	p1: i1 - c - d
//
// with a message a -> d.
func diamond(t *testing.T) (*Computation, EventID, EventID, EventID, EventID) {
	t.Helper()
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p0)
	d0 := c.AddInternal(p1)
	d1 := c.AddInternal(p1)
	if err := c.AddMessage(a, d1); err != nil {
		t.Fatalf("AddMessage: %v", err)
	}
	if err := c.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return c, a, b, d0, d1
}

func TestAddProcessCreatesInitialEvent(t *testing.T) {
	c := New()
	p := c.AddProcess()
	if got := c.Len(p); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	e := c.Initial(p)
	if !e.IsInitial() || e.Kind != KindInitial {
		t.Fatalf("initial event = %+v", e)
	}
}

func TestEventNavigation(t *testing.T) {
	c := New()
	p := c.AddProcess()
	a := c.AddInternal(p)
	b := c.AddInternal(p)
	if got := c.Prev(b); got != a {
		t.Errorf("Prev(b) = %d, want %d", got, a)
	}
	if got := c.Next(a); got != b {
		t.Errorf("Next(a) = %d, want %d", got, b)
	}
	if got := c.Next(b); got != NoEvent {
		t.Errorf("Next(final) = %d, want NoEvent", got)
	}
	if got := c.Prev(c.Initial(p).ID); got != NoEvent {
		t.Errorf("Prev(initial) = %d, want NoEvent", got)
	}
	if got := c.EventAt(p, c.Len(p)-1).ID; got != b {
		t.Errorf("last event = %d, want %d", got, b)
	}
}

func TestMessageUpgradesKinds(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	s := c.AddInternal(p0)
	r := c.AddInternal(p1)
	if err := c.AddMessage(s, r); err != nil {
		t.Fatal(err)
	}
	if got := c.Event(s).Kind; got != KindSend {
		t.Errorf("send kind = %v", got)
	}
	if got := c.Event(r).Kind; got != KindReceive {
		t.Errorf("receive kind = %v", got)
	}
	// A second message received at s makes it a send+receive event.
	s2 := c.AddInternal(p1)
	if err := c.AddMessage(r, s2); err != nil {
		t.Fatal(err)
	}
	if got := c.Event(r).Kind; got != KindSendReceive {
		t.Errorf("send+receive kind = %v", got)
	}
}

func TestEdgeValidation(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p0)
	if err := c.AddMessage(b, a); !errors.Is(err, ErrBackwardLocal) {
		t.Errorf("backward local message: err = %v", err)
	}
	if err := c.AddMessage(a, c.Initial(p1).ID); !errors.Is(err, ErrInitialEvent) {
		t.Errorf("message into initial: err = %v", err)
	}
	if err := c.AddMessage(c.Initial(p0).ID, a); !errors.Is(err, ErrInitialEvent) {
		t.Errorf("message out of initial: err = %v", err)
	}
	if err := c.AddMessage(a, 999); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event: err = %v", err)
	}
}

func TestSealDetectsCycle(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a1 := c.AddInternal(p0)
	a2 := c.AddInternal(p0)
	b1 := c.AddInternal(p1)
	b2 := c.AddInternal(p1)
	if err := c.AddMessage(a2, b1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMessage(b2, a1); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("Seal = %v, want ErrCyclic", err)
	}
}

func TestPrecedesDiamond(t *testing.T) {
	c, a, b, d0, d1 := diamond(t)
	cases := []struct {
		x, y EventID
		want bool
	}{
		{a, b, true},
		{b, a, false},
		{a, d1, true},
		{d1, a, false},
		{a, d0, false},
		{d0, d1, true},
		{b, d1, false},
		{d1, b, false},
		{a, a, false},
	}
	for _, tc := range cases {
		if got := c.Precedes(tc.x, tc.y); got != tc.want {
			t.Errorf("Precedes(%v,%v) = %v, want %v", c.Event(tc.x), c.Event(tc.y), got, tc.want)
		}
		if got := c.PrecedesSlow(tc.x, tc.y); got != tc.want {
			t.Errorf("PrecedesSlow(%v,%v) = %v, want %v", c.Event(tc.x), c.Event(tc.y), got, tc.want)
		}
	}
}

func TestInitialEventsPrecedeEverything(t *testing.T) {
	c, a, _, _, _ := diamond(t)
	i0 := c.Initial(0).ID
	i1 := c.Initial(1).ID
	if !c.Precedes(i0, a) {
		t.Error("initial event must precede local events")
	}
	if !c.Precedes(i1, a) {
		t.Error("initial event must precede events of other processes")
	}
	if c.Precedes(i0, i1) || c.Precedes(i1, i0) {
		t.Error("initial events must be mutually unordered")
	}
	if c.Precedes(a, i1) {
		t.Error("nothing precedes an initial event")
	}
}

func TestIndependence(t *testing.T) {
	c, a, b, d0, d1 := diamond(t)
	if !c.Independent(b, d0) {
		t.Error("b and d0 should be independent")
	}
	if c.Independent(a, d1) {
		t.Error("a -> d1 so not independent")
	}
	if c.Independent(a, a) {
		t.Error("an event is not independent of itself")
	}
	_ = b
	_ = d1
}

func TestConsistentEvents(t *testing.T) {
	c, a, b, d0, d1 := diamond(t)
	// a and d0: a's successor b does not precede d0 and d0's successor d1
	// is not preceded... next(d0)=d1, d1 -> a? no. So consistent.
	if !c.ConsistentEvents(a, d0) {
		t.Error("a,d0 should be consistent")
	}
	// a and d1: next(a)=b, b -> d1? no. next(d1) none. consistent: a cut
	// through a and d1 exists? d1 requires a (message), and a is frontier
	// on p0 -- yes, cut <1,2> passes through both.
	if !c.ConsistentEvents(a, d1) {
		t.Error("a,d1 should be consistent (cut <1,2>)")
	}
	// b and d1 are consistent: cut <2,2>.
	if !c.ConsistentEvents(b, d1) {
		t.Error("b,d1 should be consistent")
	}
	// d0 and anything after message receipt: d0 vs b fine.
	if !c.ConsistentEvents(b, d0) {
		t.Error("b,d0 should be consistent")
	}
	// An ordered pair on the same process is never consistent.
	if c.ConsistentEvents(a, b) {
		t.Error("a,b on same process with a<b must be inconsistent")
	}
	_ = d1
}

// TestConsistentEventsMatchesCutDefinition cross-checks the successor-based
// consistency test against the definition: a and b are consistent iff some
// consistent cut passes through both.
func TestConsistentEventsMatchesCutDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		c := randomComputation(rng, 3, 4)
		ids := allEvents(c)
		for i := 0; i < len(ids); i++ {
			for j := i; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				want := existsCutThrough(c, a, b)
				if got := c.ConsistentEvents(a, b); got != want {
					t.Fatalf("trial %d: ConsistentEvents(%v,%v) = %v, want %v",
						trial, c.Event(a), c.Event(b), got, want)
				}
			}
		}
	}
}

// existsCutThrough brute-forces all cuts.
func existsCutThrough(c *Computation, a, b EventID) bool {
	found := false
	enumerateAllCuts(c, func(k Cut) {
		if c.CutConsistent(k) && k.PassesThrough(c.Event(a)) && k.PassesThrough(c.Event(b)) {
			found = true
		}
	})
	return found
}

func enumerateAllCuts(c *Computation, fn func(Cut)) {
	k := c.InitialCut()
	var rec func(p int)
	rec = func(p int) {
		if p == c.NumProcs() {
			fn(k.Clone())
			return
		}
		for i := 0; i < c.Len(ProcID(p)); i++ {
			k[p] = i
			rec(p + 1)
		}
		k[p] = 0
	}
	rec(0)
}

func allEvents(c *Computation) []EventID {
	var ids []EventID
	c.Events(func(e Event) bool {
		ids = append(ids, e.ID)
		return true
	})
	return ids
}

// randomComputation builds a random acyclic computation with np processes
// and up to me events per process, with random forward messages.
func randomComputation(rng *rand.Rand, np, me int) *Computation {
	c := New()
	for p := 0; p < np; p++ {
		c.AddProcess()
		n := 1 + rng.Intn(me)
		for i := 0; i < n; i++ {
			c.AddInternal(ProcID(p))
		}
	}
	// Add messages respecting a global ranking to guarantee acyclicity:
	// send at (p,i) to (q,j) only if i < j.
	for tries := 0; tries < np*me; tries++ {
		p := ProcID(rng.Intn(np))
		q := ProcID(rng.Intn(np))
		if p == q {
			continue
		}
		i := 1 + rng.Intn(c.Len(p)-1)
		j := 1 + rng.Intn(c.Len(q)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(p, i).ID, c.EventAt(q, j).ID)
		}
	}
	if err := c.Seal(); err != nil {
		panic(err)
	}
	return c
}

func TestVectorClockMatchesGraphSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		c := randomComputation(rng, 4, 5)
		ids := allEvents(c)
		for _, a := range ids {
			for _, b := range ids {
				fast := c.Precedes(a, b)
				slow := c.PrecedesSlow(a, b) ||
					// graph search lacks the initial-precedes-all rule
					(c.Event(a).IsInitial() && !c.Event(b).IsInitial() && a != b)
				if fast != slow {
					t.Fatalf("trial %d: Precedes(%v,%v) = %v, slow = %v",
						trial, c.Event(a), c.Event(b), fast, slow)
				}
			}
		}
	}
}

func TestCutConsistencyMatchesClosureDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		c := randomComputation(rng, 3, 4)
		enumerateAllCuts(c, func(k Cut) {
			want := cutClosedUnderOrder(c, k)
			if got := c.CutConsistent(k); got != want {
				t.Fatalf("trial %d: CutConsistent(%v) = %v, want %v", trial, k, got, want)
			}
		})
	}
}

// cutClosedUnderOrder checks the textbook definition: for every event in the
// cut, all events preceding it are in the cut.
func cutClosedUnderOrder(c *Computation, k Cut) bool {
	ok := true
	c.Events(func(e Event) bool {
		if !k.Contains(e) {
			return true
		}
		c.Events(func(f Event) bool {
			if c.Precedes(f.ID, e.ID) && !k.Contains(f) {
				ok = false
			}
			return ok
		})
		return ok
	})
	return ok
}

func TestCutThroughIsMinimalConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		c := randomComputation(rng, 3, 4)
		ids := allEvents(c)
		for _, a := range ids {
			for _, b := range ids {
				if !c.ConsistentEvents(a, b) {
					continue
				}
				k := c.CutThrough(a, b)
				if !c.CutConsistent(k) {
					t.Fatalf("CutThrough(%v,%v) = %v not consistent", a, b, k)
				}
				if !k.PassesThrough(c.Event(a)) || !k.PassesThrough(c.Event(b)) {
					t.Fatalf("CutThrough(%v,%v) = %v does not pass through both",
						c.Event(a), c.Event(b), k)
				}
			}
		}
	}
}

func TestEnabledExecutePreservesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		c := randomComputation(rng, 4, 4)
		k := c.InitialCut()
		final := c.FinalCut()
		steps := 0
		for !k.Equal(final) {
			en := c.Enabled(k)
			if len(en) == 0 {
				t.Fatalf("trial %d: no enabled events at non-final cut %v", trial, k)
			}
			id := en[rng.Intn(len(en))]
			k = c.Execute(k, c.Event(id).Proc)
			if !c.CutConsistent(k) {
				t.Fatalf("trial %d: cut %v inconsistent after executing %v", trial, k, c.Event(id))
			}
			steps++
			if steps > c.NumEvents()+1 {
				t.Fatalf("trial %d: runaway execution", trial)
			}
		}
	}
}

func TestCutHelpers(t *testing.T) {
	c, a, b, _, d1 := diamond(t)
	k := Cut{1, 2}
	if !k.PassesThrough(c.Event(a)) {
		t.Error("cut should pass through a")
	}
	if k.PassesThrough(c.Event(b)) {
		t.Error("cut should not pass through b")
	}
	if !k.Contains(c.Event(d1)) {
		t.Error("cut should contain d1")
	}
	if got := k.Size(); got != 3 {
		t.Errorf("Size = %d, want 3", got)
	}
	if s := k.String(); s != "<1,2>" {
		t.Errorf("String = %q", s)
	}
	if !c.InitialCut().Leq(k) || !k.Leq(c.FinalCut()) {
		t.Error("Leq ordering broken")
	}
	if k.Leq(c.InitialCut()) {
		t.Error("k should not be below the initial cut")
	}
	k2 := k.Clone()
	k2[0] = 0
	if k.Equal(k2) {
		t.Error("Clone must not alias")
	}
}

func TestVariables(t *testing.T) {
	c := New()
	p := c.AddProcess()
	a := c.AddInternal(p)
	c.SetVar("x", a, 7)
	if got := c.Var("x", a); got != 7 {
		t.Errorf("Var = %d", got)
	}
	if got := c.Var("x", c.Initial(p).ID); got != 0 {
		t.Errorf("unset Var = %d, want 0", got)
	}
	if got := c.Var("y", a); got != 0 {
		t.Errorf("unknown table Var = %d, want 0", got)
	}
	if names := c.VarNames(); len(names) != 1 || names[0] != "x" {
		t.Errorf("VarNames = %v", names)
	}
}

func TestSumVarAndCountTrue(t *testing.T) {
	c, a, b, d0, d1 := diamond(t)
	c.SetVar("x", a, 1)
	c.SetVar("x", b, 2)
	c.SetVar("x", d0, 10)
	c.SetVar("x", d1, 20)
	if got := c.SumVar("x", Cut{1, 1}); got != 11 {
		t.Errorf("SumVar = %d, want 11", got)
	}
	n := c.CountTrue(Cut{2, 2}, func(e Event) bool { return c.Var("x", e.ID) >= 2 })
	if n != 2 {
		t.Errorf("CountTrue = %d, want 2", n)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		c := randomComputation(rng, 4, 5)
		c.SetLabel(c.EventAt(0, 1).ID, "hello")
		c.SetVar("x", c.EventAt(1, 1).ID, 42)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, c); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if got.NumProcs() != c.NumProcs() || got.NumEvents() != c.NumEvents() {
			t.Fatalf("shape mismatch: %d/%d vs %d/%d",
				got.NumProcs(), got.NumEvents(), c.NumProcs(), c.NumEvents())
		}
		if len(got.Messages()) != len(c.Messages()) {
			t.Fatalf("message count mismatch")
		}
		if got.Event(c.EventAt(0, 1).ID).Label != "hello" {
			t.Error("label lost in round trip")
		}
		if got.Var("x", c.EventAt(1, 1).ID) != 42 {
			t.Error("variable lost in round trip")
		}
		// Order relation must be identical.
		for _, a := range allEvents(c) {
			for _, b := range allEvents(c) {
				if c.Precedes(a, b) != got.Precedes(a, b) {
					t.Fatalf("order differs after round trip at (%d,%d)", a, b)
				}
			}
		}
	}
}

func TestMutationUnseals(t *testing.T) {
	c, _, _, _, _ := diamond(t)
	if !c.Sealed() {
		t.Fatal("expected sealed")
	}
	c.AddInternal(0)
	if c.Sealed() {
		t.Fatal("mutation must unseal")
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInternal:    "internal",
		KindSend:        "send",
		KindReceive:     "receive",
		KindSendReceive: "send+receive",
		KindInitial:     "initial",
		Kind(42):        "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if !KindSendReceive.IsReceive() || KindSend.IsReceive() || KindInternal.IsReceive() {
		t.Error("only receive kinds include a receive")
	}
}

// TestPairwiseConsistent checks Observation 1 on the diamond: a
// consistent pair has a consistent cut through both events.
func TestPairwiseConsistent(t *testing.T) {
	c, a, _, d0, d1 := diamond(t)
	for _, d := range []EventID{d0, d1} {
		k := c.CutThrough(a, d)
		if !c.ConsistentEvents(a, d) || !k.PassesThrough(c.Event(a)) || !k.PassesThrough(c.Event(d)) {
			t.Errorf("a,%d: consistent %v, cut %v", d, c.ConsistentEvents(a, d), k)
		}
	}
	// a and its successor are inconsistent.
	if c.ConsistentEvents(a, c.Next(a)) {
		t.Error("ordered same-process pair must be inconsistent")
	}
}
