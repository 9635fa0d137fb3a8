package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTickAndMerge(t *testing.T) {
	v := New(3)
	v.Tick(0).Tick(0).Tick(2)
	if v[0] != 2 || v[1] != 0 || v[2] != 1 {
		t.Fatalf("v = %v", v)
	}
	w := VC{1, 5, 0}
	v.Merge(w)
	if v[0] != 2 || v[1] != 5 || v[2] != 1 {
		t.Fatalf("after merge v = %v", v)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b VC
		want Ordering
	}{
		{VC{1, 2}, VC{1, 2}, Equal},
		{VC{1, 2}, VC{2, 2}, Before},
		{VC{2, 2}, VC{1, 2}, After},
		{VC{1, 0}, VC{0, 1}, Concurrent},
		{VC{0, 0}, VC{0, 0}, Equal},
		{VC{1}, VC{1, 1}, Before},     // shorter prefix, missing = 0
		{VC{1, 1}, VC{1}, After},      // symmetric
		{VC{0, 1}, VC{1}, Concurrent}, // mixed lengths
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	flip := map[Ordering]Ordering{Equal: Equal, Before: After, After: Before, Concurrent: Concurrent}
	f := func(a, b []uint8) bool {
		va, vb := make(VC, len(a)), make(VC, len(b))
		for i, x := range a {
			va[i] = int64(x % 4)
		}
		for i, x := range b {
			vb[i] = int64(x % 4)
		}
		return vb.Compare(va) == flip[va.Compare(vb)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeIsLUB(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		va, vb := New(4), New(4)
		for i := range a {
			va[i], vb[i] = int64(a[i]), int64(b[i])
		}
		m := va.Clone().Merge(vb)
		// m must be an upper bound of both...
		if va.Compare(m) == After || va.Compare(m) == Concurrent {
			return false
		}
		if vb.Compare(m) == After || vb.Compare(m) == Concurrent {
			return false
		}
		// ...and the least one: every component equals one of the inputs.
		for i := range m {
			if m[i] != va[i] && m[i] != vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockProtocol(t *testing.T) {
	// Two processes: p0 sends to p1, p1's receive must be causally after
	// the send; an independent event on p0 afterwards is concurrent with
	// an earlier independent event on p1.
	c0 := NewClock(0, 2)
	c1 := NewClock(1, 2)
	e1 := c1.Event() // p1 internal, before any communication
	s := c0.Send()
	r := c1.Receive(s)
	e0 := c0.Event()
	if s.Compare(r) != Before {
		t.Errorf("send %v must precede receive %v", s, r)
	}
	if e1.Compare(r) != Before {
		t.Errorf("local predecessor %v must precede receive %v", e1, r)
	}
	if e1.Compare(s) != Concurrent {
		t.Errorf("%v and %v should be concurrent", e1, s)
	}
	if e0.Compare(r) != Concurrent {
		t.Errorf("%v and %v should be concurrent", e0, r)
	}
	if c0.Self() != 0 || c1.Self() != 1 {
		t.Error("Self broken")
	}
}

// TestClockSimulationMatchesTruth drives a random message schedule and
// verifies the vector-clock verdicts against ground-truth reachability.
func TestClockSimulationMatchesTruth(t *testing.T) {
	const np = 4
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		clocks := make([]*Clock, np)
		for p := range clocks {
			clocks[p] = NewClock(p, np)
		}
		type ev struct {
			proc int
			vc   VC
			pred []int // indices into events of direct predecessors
		}
		var events []ev
		lastOn := make([]int, np)
		for p := range lastOn {
			lastOn[p] = -1
		}
		pending := make([]VC, 0)
		pendingFrom := make([]int, 0)
		for step := 0; step < 40; step++ {
			p := rng.Intn(np)
			var stamp VC
			var preds []int
			if lastOn[p] >= 0 {
				preds = append(preds, lastOn[p])
			}
			if len(pending) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(pending))
				stamp = clocks[p].Receive(pending[i])
				preds = append(preds, pendingFrom[i])
				pending = append(pending[:i], pending[i+1:]...)
				pendingFrom = append(pendingFrom[:i], pendingFrom[i+1:]...)
			} else if rng.Intn(2) == 0 {
				stamp = clocks[p].Send()
				pending = append(pending, stamp)
				pendingFrom = append(pendingFrom, len(events))
			} else {
				stamp = clocks[p].Event()
			}
			events = append(events, ev{proc: p, vc: stamp, pred: preds})
			lastOn[p] = len(events) - 1
		}
		// Ground-truth reachability over the predecessor DAG.
		n := len(events)
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for _, p := range events[i].pred {
				reach[p][i] = true
				for j := 0; j < n; j++ {
					if reach[j][p] {
						reach[j][i] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				want := reach[i][j]
				got := events[i].vc.Compare(events[j].vc) == Before
				if got != want {
					t.Fatalf("trial %d: before(%d,%d) = %v, want %v", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{
		Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent",
		Ordering(9): "ordering(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", o, got, want)
		}
	}
}

func TestVCString(t *testing.T) {
	if got := (VC{1, 0, 3}).String(); got != "[1 0 3]" {
		t.Errorf("String = %q", got)
	}
}
