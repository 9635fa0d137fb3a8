package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestLedgerScopes(t *testing.T) {
	l := NewLedger()
	a := l.Scope("acme", "conjunctive")
	b := l.Scope("bravo", "sumeq")
	if l.Scope("acme", "conjunctive") != a {
		t.Fatal("Scope did not intern")
	}
	a.AddCPU(300)
	a.AddSteps(30)
	a.AddEvents(10)
	a.AddBytes(100, 50)
	b.AddCPU(100)
	b.AddSteps(5)

	if got := l.TotalCPUNanos(); got != 400 {
		t.Errorf("TotalCPUNanos = %d, want 400", got)
	}
	if got := l.TenantCPUNanos("acme"); got != 300 {
		t.Errorf("TenantCPUNanos(acme) = %d, want 300", got)
	}
	snap := l.Snapshot()
	if snap.TotalCPUNanos != 400 || len(snap.Scopes) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Ranked by CPU descending.
	if snap.Scopes[0].Tenant != "acme" || snap.Scopes[1].Tenant != "bravo" {
		t.Errorf("ranking wrong: %+v", snap.Scopes)
	}
	top := snap.Scopes[0]
	if top.CPUNanos != 300 || top.Steps != 30 || top.Events != 10 ||
		top.BytesIn != 100 || top.BytesOut != 50 {
		t.Errorf("acme scope = %+v", top)
	}
	if top.CPUShare < 0.74 || top.CPUShare > 0.76 {
		t.Errorf("acme CPU share = %v, want 0.75", top.CPUShare)
	}
}

// TestLedgerScopeOverflow checks the scope cap: past it, new pairs
// share the other/other scope and totals are conserved.
func TestLedgerScopeOverflow(t *testing.T) {
	l := newLedger(2, DefaultMaxHotPredicates)
	l.Scope("a", "f").AddCPU(1)
	l.Scope("b", "f").AddCPU(2)
	l.Scope("c", "f").AddCPU(4)
	l.Scope("d", "f").AddCPU(8)
	snap := l.Snapshot()
	var sum int64
	var sawOther bool
	for _, s := range snap.Scopes {
		sum += s.CPUNanos
		if s.Tenant == "other" && s.Family == "other" {
			sawOther = true
			if s.CPUNanos != 12 {
				t.Errorf("overflow scope CPU = %d, want 12", s.CPUNanos)
			}
		}
	}
	if !sawOther {
		t.Error("no overflow scope in snapshot")
	}
	if sum != 15 || snap.TotalCPUNanos != 15 {
		t.Errorf("CPU not conserved: scopes %d, total %d, want 15", sum, snap.TotalCPUNanos)
	}
	if got := l.TenantCPUNanos("c"); got != 0 {
		t.Errorf("overflowed tenant attributed %d CPU to its own name", got)
	}
}

func TestLedgerHotPredicates(t *testing.T) {
	l := NewLedger()
	l.RecordPredicate("p-cold", "a", "conjunctive", 1)
	l.RecordPredicate("p-hot", "a", "conjunctive", 50)
	l.RecordPredicate("p-warm", "b", "sumeq", 10)
	l.RecordPredicate("p-hot", "a", "conjunctive", 50)

	top := l.HotPredicates(2)
	if len(top) != 2 || top[0].ID != "p-hot" || top[0].Steps != 100 || top[1].ID != "p-warm" {
		t.Errorf("HotPredicates(2) = %+v", top)
	}
	if all := l.HotPredicates(10); len(all) != 3 {
		t.Errorf("HotPredicates(10) = %+v", all)
	}
}

// TestLedgerPredicateOverflow checks the hot-table cap aggregates the
// remainder into an "other" row with steps conserved.
func TestLedgerPredicateOverflow(t *testing.T) {
	l := newLedger(DefaultMaxScopes, 2)
	l.RecordPredicate("p1", "a", "f", 1)
	l.RecordPredicate("p2", "a", "f", 2)
	l.RecordPredicate("p3", "a", "f", 4)
	l.RecordPredicate("p4", "a", "f", 8)
	l.RecordPredicate("p1", "a", "f", 16) // interned row still accumulates
	all := l.HotPredicates(10)
	var sum int64
	var other int64
	for _, p := range all {
		sum += p.Steps
		if p.ID == "other" {
			other = p.Steps
		}
	}
	if sum != 31 {
		t.Errorf("steps not conserved: %d, want 31", sum)
	}
	if other != 12 {
		t.Errorf("other row = %d steps, want 12", other)
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	s := l.Scope("a", "f")
	if s != nil {
		t.Fatal("nil ledger returned non-nil scope")
	}
	s.AddCPU(1)
	s.AddSteps(1)
	s.AddEvents(1)
	s.AddBytes(1, 1)
	l.RecordPredicate("p", "a", "f", 1)
	if l.TotalCPUNanos() != 0 || l.TenantCPUNanos("a") != 0 {
		t.Error("nil ledger reported cost")
	}
	if snap := l.Snapshot(); len(snap.Scopes) != 0 {
		t.Error("nil ledger snapshot has scopes")
	}
	if l.HotPredicates(5) != nil {
		t.Error("nil ledger returned hot predicates")
	}
}

// TestLedgerConcurrent hammers scopes and the predicate table from many
// goroutines (run under -race in CI) and checks conservation.
func TestLedgerConcurrent(t *testing.T) {
	l := newLedger(4, 4)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tenant := fmt.Sprintf("t%d", (w+i)%6)
				l.Scope(tenant, "f").AddCPU(1)
				l.RecordPredicate(fmt.Sprintf("p%d", i%8), tenant, "f", 1)
			}
		}(w)
	}
	wg.Wait()
	var cpu int64
	for _, s := range l.Snapshot().Scopes {
		cpu += s.CPUNanos
	}
	if cpu != workers*per || l.TotalCPUNanos() != workers*per {
		t.Errorf("CPU not conserved: scopes %d, total %d, want %d", cpu, l.TotalCPUNanos(), workers*per)
	}
	var steps int64
	for _, p := range l.HotPredicates(100) {
		steps += p.Steps
	}
	if steps != workers*per {
		t.Errorf("steps not conserved: %d, want %d", steps, workers*per)
	}
}
