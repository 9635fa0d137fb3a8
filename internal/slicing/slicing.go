// Package slicing implements computation slicing for regular predicates —
// the natural continuation of the paper's program, developed by the same
// authors (Mittal & Garg, "Computation slicing: techniques and theory").
//
// A global predicate is REGULAR iff its satisfying consistent cuts are
// closed under both lattice meet and join; conjunctive predicates are the
// canonical example. For a regular predicate B, the satisfying cuts form a
// sublattice, and by Birkhoff's representation theorem that sublattice is
// exactly the family of ideals of a derived graph on the events — the
// SLICE. The slice is computed from the join-irreducible elements
// J_B(e) — the least satisfying cut containing event e — which exist for
// regular predicates because the satisfying cuts containing e are
// meet-closed.
//
// Slices compress the search space: instead of enumerating the full cut
// lattice, any further analysis (counting, nested detection, reachability)
// can enumerate only the ideals of the slice, which contains precisely the
// cuts satisfying B.
package slicing

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/linear"
)

// ErrNotRegular is returned when the predicate is detectably not regular
// (the construction reached a contradiction). The construction cannot
// always detect irregularity; Verify provides a sound (exponential) check.
// Errors carrying detail wrap this sentinel as a *NotRegularError, so
// errors.Is(err, ErrNotRegular) keeps working.
var ErrNotRegular = errors.New("slicing: predicate is not regular")

// NotRegularError is the detailed form of ErrNotRegular: it names the
// witnessing cut (and what went wrong with it) so a rejected spec can be
// debugged instead of guessed at. It unwraps to ErrNotRegular.
type NotRegularError struct {
	// Detail says how regularity failed, e.g. "slice contains
	// non-satisfying cut" or "not a sliceable family".
	Detail string
	// Cut is the witnessing cut, when the failure names one.
	Cut computation.Cut
}

// Error renders the sentinel's message followed by the witness.
func (e *NotRegularError) Error() string {
	msg := ErrNotRegular.Error()
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Cut != nil {
		msg += fmt.Sprintf(" (witness cut %v)", e.Cut)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrNotRegular) hold.
func (e *NotRegularError) Unwrap() error { return ErrNotRegular }

// ErrEmpty indicates that no consistent cut satisfies the predicate, so
// the slice is empty.
var ErrEmpty = errors.New("slicing: no consistent cut satisfies the predicate")

// Oracle evaluates the (regular) predicate at consistent cuts and, when
// the predicate does not hold, names a forbidden process — one that must
// advance in any satisfying cut above the current one. Regular predicates
// are in particular linear, so such a process always exists, and the
// oracle — like the advancement loop it drives — is package linear's.
type Oracle = linear.Oracle

// Slice is the computed slice: for every event, the least satisfying cut
// containing it (its join-irreducible), or excluded if no satisfying cut
// contains the event.
type Slice struct {
	c *computation.Computation
	// least is J_B(e) per event id; nil when the event is excluded.
	least []computation.Cut
	// bottom is the least satisfying cut overall.
	bottom computation.Cut
	// top is the greatest satisfying cut (the final cut joined down is
	// not needed; we track it for Ideals' bound).
	top computation.Cut
}

// Compute builds the slice of the computation with respect to the
// oracle's predicate. It returns ErrEmpty if no satisfying cut exists.
func Compute(c *computation.Computation, o Oracle) (*Slice, error) {
	s := &Slice{c: c, least: make([]computation.Cut, c.NumEvents())}
	// The least satisfying cut overall: advance from the initial cut.
	bottom, ok := linear.FindLeast(c, o, c.InitialCut())
	if !ok {
		return nil, ErrEmpty
	}
	s.bottom = bottom
	// Greatest satisfying cut: for a regular predicate the final cut's
	// "down-closure" under B is found by scanning from the top of the
	// lattice; we approximate it as the join of all J_B(e), which for
	// join-closed families is itself satisfying and maximal among
	// joins. Events beyond it are excluded.
	top := bottom.Clone()
	c.Events(func(e computation.Event) bool {
		k := s.leastContaining(o, e)
		if k != nil {
			for p := range top {
				if k[p] > top[p] {
					top[p] = k[p]
				}
			}
		}
		return true
	})
	s.top = top
	return s, nil
}

// leastContaining memoizes J_B(e).
func (s *Slice) leastContaining(o Oracle, e computation.Event) computation.Cut {
	if s.least[e.ID] != nil {
		return s.least[e.ID]
	}
	start := s.c.CutThrough(e.ID)
	// Join with the global bottom: every satisfying cut contains it.
	for p := range start {
		if s.bottom[p] > start[p] {
			start[p] = s.bottom[p]
		}
	}
	// The cut must keep containing e; advancement never removes events,
	// so plain forward advancement suffices.
	k, ok := linear.FindLeast(s.c, o, start)
	if !ok {
		return nil
	}
	s.least[e.ID] = k
	return k
}

// Bottom returns the least satisfying cut.
func (s *Slice) Bottom() computation.Cut { return s.bottom.Clone() }

// Top returns the greatest cut representable by the slice (the join of
// all join-irreducibles).
func (s *Slice) Top() computation.Cut { return s.top.Clone() }

// Excluded reports whether no satisfying cut contains the event.
func (s *Slice) Excluded(o Oracle, e computation.Event) bool {
	return s.leastContaining(o, e) == nil
}

// Contains reports whether a cut belongs to the slice: it must be the
// join of the join-irreducibles of its events (and lie above Bottom).
// For a regular predicate this is equivalent to satisfying the predicate.
func (s *Slice) Contains(o Oracle, k computation.Cut) bool {
	if !s.bottom.Leq(k) {
		return false
	}
	join := s.bottom.Clone()
	for p := 0; p < s.c.NumProcs(); p++ {
		for i := 1; i <= k[p]; i++ {
			j := s.leastContaining(o, s.c.EventAt(computation.ProcID(p), i))
			if j == nil {
				return false // an excluded event inside the cut
			}
			for q := range join {
				if j[q] > join[q] {
					join[q] = j[q]
				}
			}
		}
	}
	return join.Equal(k)
}

// Ideals enumerates every cut of the slice (every satisfying cut of a
// regular predicate) exactly once, via BFS over the restricted lattice:
// from the slice's bottom, an event may execute only if the resulting cut
// absorbs the event's join-irreducible. Stops early if visit returns
// false.
func (s *Slice) Ideals(o Oracle, visit func(computation.Cut) bool) {
	seen := map[string]bool{s.bottom.Key(): true}
	level := []computation.Cut{s.bottom.Clone()}
	for len(level) > 0 {
		var next []computation.Cut
		for _, k := range level {
			if !visit(k) {
				return
			}
			for p := 0; p < s.c.NumProcs(); p++ {
				if k[p]+1 >= s.c.Len(computation.ProcID(p)) {
					continue
				}
				e := s.c.EventAt(computation.ProcID(p), k[p]+1)
				j := s.leastContaining(o, e)
				if j == nil {
					continue
				}
				// The successor cut in the sublattice is k joined
				// with J_B(e).
				nk := k.Clone()
				for q := range nk {
					if j[q] > nk[q] {
						nk[q] = j[q]
					}
				}
				key := nk.Key()
				if !seen[key] {
					seen[key] = true
					next = append(next, nk)
				}
			}
		}
		level = next
	}
}

// Count returns the number of cuts in the slice.
func (s *Slice) Count(o Oracle) *big.Int {
	n := big.NewInt(0)
	one := big.NewInt(1)
	s.Ideals(o, func(computation.Cut) bool {
		n.Add(n, one)
		return true
	})
	return n
}

// Verify exhaustively checks (exponential; for tests and small
// computations) that the slice's cuts are exactly the satisfying cuts.
func (s *Slice) Verify(o Oracle) error {
	want := make(map[string]bool)
	lattice.Explore(s.c, func(k computation.Cut) bool {
		if o.Holds(s.c, k) {
			want[k.Key()] = true
		}
		return true
	})
	got := make(map[string]bool)
	var bad computation.Cut
	s.Ideals(o, func(k computation.Cut) bool {
		got[k.Key()] = true
		if !want[k.Key()] {
			bad = k.Clone()
			return false
		}
		return true
	})
	if bad != nil {
		return &NotRegularError{Detail: "slice contains non-satisfying cut", Cut: bad}
	}
	// Check (and so report) missing cuts in sorted key order: which cut
	// the error names must not depend on map iteration order.
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !got[key] {
			return &NotRegularError{Detail: fmt.Sprintf("satisfying cut %s missing from slice", key)}
		}
	}
	return nil
}

// ConjunctiveOracle adapts local predicates (the canonical regular
// predicate) for slicing: the linear conjunctive oracle.
func ConjunctiveOracle(locals map[computation.ProcID]func(computation.Event) bool) Oracle {
	return linear.Conjunctive(locals)
}

// QuiescentOracle adapts channel quiescence — the inflight == 0
// predicate — for slicing. Quiescence is regular: a message in flight
// at the meet (or join) of two cuts is in flight at one of them,
// because its send lies inside both (one) and its receive outside one
// (both). It is linear via the forbidden process: a message in flight
// at k forces the receive into every satisfying cut above k, so the
// receiver must advance.
func QuiescentOracle(c *computation.Computation) Oracle {
	msgs := c.Messages()
	// Which in-flight message Forbidden names steers the construction,
	// so scan in a canonical order.
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Send < msgs[j].Send })
	return quiescentOracle{msgs: msgs}
}

type quiescentOracle struct{ msgs []computation.Message }

// inFlight returns the first in-flight message at k in send order.
func (o quiescentOracle) inFlight(c *computation.Computation, k computation.Cut) (computation.Message, bool) {
	for _, m := range o.msgs {
		s := c.Event(m.Send)
		if s.Index > k[int(s.Proc)] {
			continue
		}
		if r := c.Event(m.Receive); r.Index > k[int(r.Proc)] {
			return m, true
		}
	}
	return computation.Message{}, false
}

func (o quiescentOracle) Holds(c *computation.Computation, k computation.Cut) bool {
	_, inflight := o.inFlight(c, k)
	return !inflight
}

func (o quiescentOracle) Forbidden(c *computation.Computation, k computation.Cut) computation.ProcID {
	m, inflight := o.inFlight(c, k)
	if !inflight {
		return linear.NoProc
	}
	return c.Event(m.Receive).Proc
}
