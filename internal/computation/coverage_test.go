package computation

import (
	"strings"
	"testing"
)

// Direct unit tests for the helpers other packages exercise only
// indirectly.

func TestClone(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a, b); err != nil {
		t.Fatal(err)
	}
	extra := c.AddInternal(p1)
	if err := c.AddEdge(a, extra); err != nil {
		t.Fatal(err)
	}
	c.SetLabel(a, "tag")
	c.SetVar("x", a, 5)
	c.MustSeal()
	cc := c.Clone()
	if cc.Sealed() {
		t.Error("clone must be unsealed")
	}
	cc.MustSeal()
	if cc.NumProcs() != c.NumProcs() || cc.NumEvents() != c.NumEvents() {
		t.Fatal("clone shape differs")
	}
	if len(cc.Messages()) != 1 || len(cc.Edges()) != 1 {
		t.Fatal("clone lost edges")
	}
	if cc.Event(a).Label != "tag" || cc.Var("x", a) != 5 {
		t.Fatal("clone lost annotations")
	}
	// Mutating the clone must not affect the original.
	cc.AddInternal(p0)
	cc.SetVar("x", a, 9)
	cc.SetLabel(a, "other")
	if c.NumEvents() == cc.NumEvents() {
		t.Error("clone aliases event storage")
	}
	if c.Var("x", a) != 5 {
		t.Error("clone aliases variable storage")
	}
	if c.Event(a).Label != "tag" {
		t.Error("clone aliases label storage")
	}
}

// TestAddProcesses checks processes are numbered consecutively, also
// when added after other processes already have events.
func TestAddProcesses(t *testing.T) {
	c := New()
	for want := ProcID(0); want < 5; want++ {
		if p := c.AddProcess(); p != want || c.NumProcs() != int(want)+1 || c.Len(p) != 1 {
			t.Fatalf("AddProcess = %d (procs %d, len %d), want %d", p, c.NumProcs(), c.Len(p), want)
		}
		c.AddInternal(0)
	}
}

func TestEventPanicsOnBadID(t *testing.T) {
	c := New()
	c.AddProcess()
	defer func() {
		if recover() == nil {
			t.Error("Event(999) must panic")
		}
	}()
	c.Event(999)
}

func TestRequireSealedPanics(t *testing.T) {
	c := New()
	c.AddProcess()
	defer func() {
		if recover() == nil {
			t.Error("order query before Seal must panic")
		}
	}()
	c.Clock(0)
}

func TestMustSealPanicsOnCycle(t *testing.T) {
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
	defer func() {
		if recover() == nil {
			t.Error("MustSeal must panic on a cycle")
		}
	}()
	c.MustSeal()
}

func TestCutKeyUnique(t *testing.T) {
	seen := map[string]Cut{}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			k := Cut{i, j}
			key := k.Key()
			if other, dup := seen[key]; dup {
				t.Fatalf("key collision: %v and %v -> %q", k, other, key)
			}
			seen[key] = k
		}
	}
	// Keys must distinguish multi-digit boundaries: <1,23> vs <12,3>.
	if (Cut{1, 23}).Key() == (Cut{12, 3}).Key() {
		t.Error("key ambiguity across component boundaries")
	}
}

func TestTopoIsTopological(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	topo := c.Topo()
	pos := make(map[EventID]int, len(topo))
	for i, id := range topo {
		pos[id] = i
	}
	if len(topo) != c.NumEvents() {
		t.Fatalf("topo has %d events, want %d", len(topo), c.NumEvents())
	}
	c.Events(func(e Event) bool {
		for _, pred := range c.DirectPreds(e.ID) {
			if pos[pred] >= pos[e.ID] {
				t.Fatalf("topo order violates edge %d -> %d", pred, e.ID)
			}
		}
		return true
	})
	// Copies, not aliases.
	topo[0] = EventID(999)
	if c.Topo()[0] == EventID(999) {
		t.Error("Topo must return a copy")
	}
}

func TestDirectNeighbors(t *testing.T) {
	c := New()
	p0 := c.AddProcess()
	p1 := c.AddProcess()
	a := c.AddInternal(p0)
	b := c.AddInternal(p1)
	if err := c.AddMessage(a, b); err != nil {
		t.Fatal(err)
	}
	c.MustSeal()
	preds := c.DirectPreds(b)
	// b's predecessors: its initial event and a.
	if len(preds) != 2 {
		t.Fatalf("DirectPreds(b) = %v", preds)
	}
	hasA := false
	for _, p := range preds {
		if p == a {
			hasA = true
		}
	}
	if !hasA {
		t.Fatalf("DirectPreds(b) = %v lacks a", preds)
	}
}

func TestEventString(t *testing.T) {
	c := New()
	p := c.AddProcess()
	a := c.AddInternal(p)
	c.SetLabel(a, "hello")
	e := c.Event(a)
	if got := e.String(); !strings.Contains(got, "p0[1]") || !strings.Contains(got, "hello") {
		t.Errorf("String = %q", got)
	}
	if got := c.Initial(p).String(); got != "p0[0]" {
		t.Errorf("initial String = %q", got)
	}
}
