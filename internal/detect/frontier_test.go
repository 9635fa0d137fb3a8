package detect

import (
	"reflect"
	"testing"
)

// Two processes; online vector clocks count delivered events only (no
// initial events). Ids pack as index*procs + proc.
func TestFrontierRequires(t *testing.T) {
	f := newFrontier(2, nil)
	// First event of process 0: no dependencies.
	if got := f.requires(Event{Proc: 0, VC: []int64{1, 0}}); len(got) != 0 {
		t.Errorf("first event: requires %v, want none", got)
	}
	// Second event of process 0 after receiving process 1's first:
	// depends on its local predecessor and on that remote event.
	got := f.requires(Event{Proc: 0, VC: []int64{2, 1}})
	want := []int64{f.id(0, 1), f.id(1, 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requires = %v, want %v", got, want)
	}
	// Against a previous clock only the components that moved count:
	// process 1's first event is already below the local predecessor.
	f.observe(Event{Proc: 0, VC: []int64{2, 1}})
	if got, want := f.requires(Event{Proc: 0, VC: []int64{3, 1}}), []int64{f.id(0, 2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("unmoved component: requires = %v, want %v", got, want)
	}
	if got, want := f.requires(Event{Proc: 0, VC: []int64{3, 2}}), []int64{f.id(0, 2), f.id(1, 2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("moved component: requires = %v, want %v", got, want)
	}
}

// TestFrontierCopiesClocks: the frontier keeps its own copy of each
// process's last clock, so it neither pins the caller's memory nor sees
// it change.
func TestFrontierCopiesClocks(t *testing.T) {
	f := newFrontier(2, nil)
	vc := []int64{2, 1}
	f.observe(Event{Proc: 0, VC: vc})
	vc[1] = 5
	if got, want := f.requires(Event{Proc: 0, VC: []int64{3, 2}}), []int64{f.id(0, 2), f.id(1, 2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("after the caller reused its clock: requires = %v, want %v", got, want)
	}
}

func TestFrontierStable(t *testing.T) {
	f := newFrontier(2, nil)
	if ids := f.stable(); ids != nil {
		t.Errorf("nothing reported: stable = %v, want nil", ids)
	}
	f.observe(Event{Proc: 0, VC: []int64{1, 0}})
	if ids := f.stable(); ids != nil {
		t.Errorf("process 1 silent: stable = %v, want nil", ids)
	}
	f.observe(Event{Proc: 1, VC: []int64{0, 1}})
	if ids := f.stable(); ids != nil {
		t.Errorf("no common past yet: stable = %v, want nil", ids)
	}
	// Process 0 hears from process 1: that remote event enters every
	// future cut and becomes prunable.
	f.observe(Event{Proc: 0, VC: []int64{2, 1}})
	if ids, want := f.stable(), []int64{f.id(1, 1)}; !reflect.DeepEqual(ids, want) {
		t.Errorf("stable = %v, want %v", ids, want)
	}
	// Process 1 hears back: process 0's first two events stabilize;
	// process 1's first was already pruned and must not repeat.
	f.observe(Event{Proc: 1, VC: []int64{2, 2}})
	if ids, want := f.stable(), []int64{f.id(0, 1), f.id(0, 2)}; !reflect.DeepEqual(ids, want) {
		t.Errorf("stable = %v, want %v", ids, want)
	}
}
