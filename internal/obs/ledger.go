package obs

import (
	"sort"
	"sync/atomic"
)

// DefaultMaxScopes bounds the number of (tenant, family) scopes a
// ledger interns; extra scopes share the "other"/"other" overflow
// scope, mirroring the vector cardinality cap.
const DefaultMaxScopes = 256

// DefaultMaxHotPredicates bounds the per-predicate step table; extra
// predicates aggregate into a synthetic "other" row.
const DefaultMaxHotPredicates = 512

// ScopeKey identifies a cost-attribution scope: which tenant, which
// predicate family.
type ScopeKey struct {
	Tenant string
	Family string
}

// Scope accumulates attributed cost for one (tenant, family) pair. All
// fields are atomics, so the serving path records without locking; all
// methods are no-ops on a nil receiver, matching the obs handle
// discipline — instrumented code never branches on whether the ledger
// is enabled.
type Scope struct {
	cpu      atomic.Int64
	steps    atomic.Int64
	events   atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// AddCPU charges ns nanoseconds of CPU-adjacent wall time measured on
// the goroutine doing this scope's work (the stream engine times each
// batch's detector work per session).
func (s *Scope) AddCPU(ns int64) {
	if s == nil || ns <= 0 {
		return
	}
	s.cpu.Add(ns)
}

// AddSteps charges detector steps.
func (s *Scope) AddSteps(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.steps.Add(n)
}

// AddEvents charges delivered events.
func (s *Scope) AddEvents(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.events.Add(n)
}

// AddBytes charges wire bytes read from and written to this scope's
// clients.
func (s *Scope) AddBytes(in, out int64) {
	if s == nil {
		return
	}
	if in > 0 {
		s.bytesIn.Add(in)
	}
	if out > 0 {
		s.bytesOut.Add(out)
	}
}

// predKey identifies one registered predicate in the hot table.
type predKey struct {
	id     string
	tenant string
	family string
}

// Ledger attributes serving cost — CPU time, detector steps, events and
// wire bytes — to (tenant, family) scopes, plus a bounded per-predicate
// step table for the top-K hot-predicates view. Both tables are capped
// interners with an "other" overflow, mirroring the vector cardinality
// cap. Scope and predicate handles are interned once and then recorded
// to via atomics, so the serving path takes no lock. All methods are
// nil-safe.
type Ledger struct {
	scopes interner[ScopeKey, Scope]
	preds  interner[predKey, Counter]
}

// NewLedger returns an empty ledger with the default cardinality caps.
func NewLedger() *Ledger { return newLedger(DefaultMaxScopes, DefaultMaxHotPredicates) }

func newLedger(maxScopes, maxPreds int) *Ledger {
	return &Ledger{
		scopes: newInterner[ScopeKey, Scope](maxScopes),
		preds:  newInterner[predKey, Counter](maxPreds),
	}
}

// Scope interns and returns the scope for (tenant, family). Past the
// cap, unknown pairs share the "other"/"other" overflow scope so totals
// stay conserved. Nil-safe: a nil ledger returns a nil (no-op) scope.
func (l *Ledger) Scope(tenant, family string) *Scope {
	if l == nil {
		return nil
	}
	return l.scopes.get(ScopeKey{Tenant: tenant, Family: family}, true)
}

// Predicate interns and returns one registered predicate's row in the
// hot table, keyed by (id, tenant, family): the counter its detector
// steps are charged to. Callers resolve it once and then add to it
// with one atomic; past the cap new keys share the "other" row.
// Nil-safe: a nil ledger returns a nil (no-op) counter.
func (l *Ledger) Predicate(id, tenant, family string) *Counter {
	if l == nil {
		return nil
	}
	return l.preds.get(predKey{id: id, tenant: tenant, family: family}, true)
}

// cpuNanos sums the attributed CPU over every scope (overflow included)
// and, of that, over the named scopes of one tenant.
func (l *Ledger) cpuNanos(tenant string) (total, own int64) {
	if l == nil {
		return 0, 0
	}
	l.scopes.each(func(k ScopeKey, s *Scope, overflow bool) {
		ns := s.cpu.Load()
		total += ns
		if !overflow && k.Tenant == tenant {
			own += ns
		}
	})
	return total, own
}

// TotalCPUNanos returns the CPU nanoseconds attributed across every
// scope (including overflow) — the total CPU shares are computed against.
func (l *Ledger) TotalCPUNanos() int64 {
	total, _ := l.cpuNanos("")
	return total
}

// TenantCPUNanos sums the CPU attributed to one tenant across its
// family scopes. Overflow cost is never attributed to a named tenant.
func (l *Ledger) TenantCPUNanos(tenant string) int64 {
	_, own := l.cpuNanos(tenant)
	return own
}

// ScopeCost is one scope's row in a ledger snapshot.
type ScopeCost struct {
	Tenant   string  `json:"tenant"`
	Family   string  `json:"family"`
	CPUNanos int64   `json:"cpu_nanos"`
	CPUShare float64 `json:"cpu_share"` // fraction of the ledger-wide CPU total
	Steps    int64   `json:"steps"`
	Events   int64   `json:"events"`
	BytesIn  int64   `json:"bytes_in"`
	BytesOut int64   `json:"bytes_out"`
}

// LedgerSnapshot is a point-in-time cost report, scopes ranked by
// attributed CPU, then steps, then (tenant, family) for determinism. It
// is the /debug/tenants payload, whose handler joins in HotPredicates(k)
// (Snapshot leaves it nil).
type LedgerSnapshot struct {
	TotalCPUNanos int64       `json:"total_cpu_nanos"`
	Scopes        []ScopeCost `json:"scopes"`
	HotPredicates []PredCost  `json:"hot_predicates,omitempty"`
}

// Snapshot copies every scope. Concurrent recording may land between
// field reads; each field is individually exact.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	var snap LedgerSnapshot
	l.scopes.each(func(k ScopeKey, s *Scope, overflow bool) {
		if overflow {
			k = ScopeKey{Tenant: overflowValue, Family: overflowValue}
		}
		c := ScopeCost{
			Tenant:   k.Tenant,
			Family:   k.Family,
			CPUNanos: s.cpu.Load(),
			Steps:    s.steps.Load(),
			Events:   s.events.Load(),
			BytesIn:  s.bytesIn.Load(),
			BytesOut: s.bytesOut.Load(),
		}
		snap.TotalCPUNanos += c.CPUNanos
		snap.Scopes = append(snap.Scopes, c)
	})
	if snap.TotalCPUNanos > 0 {
		for i := range snap.Scopes {
			snap.Scopes[i].CPUShare = float64(snap.Scopes[i].CPUNanos) / float64(snap.TotalCPUNanos)
		}
	}
	sort.Slice(snap.Scopes, func(i, j int) bool {
		a, b := snap.Scopes[i], snap.Scopes[j]
		if a.CPUNanos != b.CPUNanos {
			return a.CPUNanos > b.CPUNanos
		}
		if a.Steps != b.Steps {
			return a.Steps > b.Steps
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Family < b.Family
	})
	return snap
}

// PredCost is one predicate's row in the hot-predicates view.
type PredCost struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Family string `json:"family"`
	Steps  int64  `json:"steps"`
}

// HotPredicates returns the top-k predicates by attributed detector
// steps (ties broken by tenant then id, descending steps first). The
// aggregated past-cap remainder appears as a synthetic "other" row when
// nonzero.
func (l *Ledger) HotPredicates(k int) []PredCost {
	if l == nil || k <= 0 {
		return nil
	}
	var out []PredCost
	l.preds.each(func(pk predKey, p *Counter, overflow bool) {
		if overflow {
			pk = predKey{id: overflowValue, tenant: overflowValue, family: overflowValue}
		}
		out = append(out, PredCost{ID: pk.id, Tenant: pk.tenant, Family: pk.family, Steps: p.Value()})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Steps != out[j].Steps {
			return out[i].Steps > out[j].Steps
		}
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
