package lattice

import (
	"testing"
	"testing/quick"

	"github.com/distributed-predicates/gpd/internal/computation"
)

// latticeSpec generates small computations for quick properties.
type latticeSpec struct {
	Lens  [3]uint8
	Pairs [5][4]uint8
}

func (s latticeSpec) build() *computation.Computation {
	c := computation.New()
	for p := 0; p < len(s.Lens); p++ {
		c.AddProcess()
		n := int(s.Lens[p]%3) + 1
		for i := 0; i < n; i++ {
			c.AddInternal(computation.ProcID(p))
		}
	}
	for _, m := range s.Pairs {
		from := computation.ProcID(int(m[0]) % c.NumProcs())
		to := computation.ProcID(int(m[1]) % c.NumProcs())
		if from == to {
			continue
		}
		i := 1 + int(m[2])%(c.Len(from)-1)
		j := 1 + int(m[3])%(c.Len(to)-1)
		if i < j {
			_ = c.AddMessage(c.EventAt(from, i).ID, c.EventAt(to, j).ID)
		}
	}
	return c.MustSeal()
}

// TestDefinitelyImpliesPossibly: every computation has at least one run,
// so a predicate that definitely holds possibly holds.
func TestDefinitelyImpliesPossibly(t *testing.T) {
	f := func(s latticeSpec, markBits uint32) bool {
		c := s.build()
		// Predicate from hash of the cut key and markBits.
		pred := func(_ *computation.Computation, k computation.Cut) bool {
			h := uint32(1)
			for _, v := range k {
				h = h*31 + uint32(v)
			}
			return (h^markBits)%3 == 0
		}
		if Definitely(c, pred) {
			ok, _ := Possibly(c, pred)
			return ok
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPossiblyComplementDuality: not Possibly(B) iff Definitely(not B)
// holds vacuously everywhere — more precisely, if no cut satisfies B then
// every run trivially avoids it, and Definitely(B) must be false unless
// the computation has no runs (impossible).
func TestPossiblyComplementDuality(t *testing.T) {
	f := func(s latticeSpec) bool {
		c := s.build()
		never := func(*computation.Computation, computation.Cut) bool { return false }
		always := func(*computation.Computation, computation.Cut) bool { return true }
		if ok, _ := Possibly(c, never); ok {
			return false
		}
		if Definitely(c, never) {
			return false
		}
		if ok, _ := Possibly(c, always); !ok {
			return false
		}
		return Definitely(c, always)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCountBounds: the number of consistent cuts is between the longest
// process length and the product of all process lengths.
func TestCountBounds(t *testing.T) {
	f := func(s latticeSpec) bool {
		c := s.build()
		n := Count(c)
		product := int64(1)
		longest := int64(0)
		for p := 0; p < c.NumProcs(); p++ {
			l := int64(c.Len(computation.ProcID(p)))
			product *= l
			if l > longest {
				longest = l
			}
		}
		return n >= longest && n <= product
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRunsCountMatchesLevelSum: the number of runs equals the number of
// maximal paths through the lattice; every run has exactly NumEvents -
// NumProcs steps.
func TestRunsHaveUniformLength(t *testing.T) {
	f := func(s latticeSpec) bool {
		c := s.build()
		want := c.NumEvents() - c.NumProcs()
		ok := true
		n := 0
		Runs(c, func(run []computation.EventID) bool {
			if len(run) != want {
				ok = false
				return false
			}
			n++
			return n < 200 // cap the enumeration
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPathExistsUnrestrictedAlwaysUpward: with no region restriction, any
// consistent cut is reachable from the initial cut and reaches the final
// cut.
func TestPathExistsUnrestrictedAlwaysUpward(t *testing.T) {
	f := func(s latticeSpec) bool {
		c := s.build()
		ok := true
		n := 0
		Explore(c, func(k computation.Cut) bool {
			if !PathExistsTraced(c, c.InitialCut(), k, nil, nil) {
				ok = false
				return false
			}
			if !PathExistsTraced(c, k, c.FinalCut(), nil, nil) {
				ok = false
				return false
			}
			n++
			return n < 100
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
