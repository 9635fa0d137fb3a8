package detect

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/lattice"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// TestRebuildAgreesWithLattice checks the close-time residue route end
// to end on the two encodings rebuild adds to the delivered payload:
// Batch(rebuild(Linearize(c))) under Definitely must match the
// exhaustive lattice.Definitely on the original computation.
//
//   - all(x) over a random involved subset, the uninvolved processes
//     toggling at random: the rebuilt trace holds them true.
//   - inflight under every relop, over message-dense computations with
//     multi-message events: the rebuilt trace stores each process's
//     running occupancy as sum(inflight). A non-unit == must be refused
//     with ErrNotUnitStep, as the batch kernel refuses it.
func TestRebuildAgreesWithLattice(t *testing.T) {
	const seeds = 200
	residue := func(c *computation.Computation, s pred.Spec, involved []int) (bool, error) {
		e, _ := Lookup(s.Family, ModalityDefinitely)
		events, cfg, err := e.Linearize(c, s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Involved = involved
		rc, rs, err := rebuild(s, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		if rc.NumEvents() != c.NumEvents() {
			t.Fatalf("rebuilt %d events from a computation of %d", rc.NumEvents(), c.NumEvents())
		}
		res, err := Batch(rc, rs, ModalityDefinitely, Options{Parallelism: 1}, nil)
		return res.Holds, err
	}

	t.Run("all/involved", func(t *testing.T) {
		outcomes := map[bool]int{}
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gen.Random(gen.Params{Seed: seed, Procs: 3 + int(seed%2), Events: 4, MsgFrac: 0.5})
			var involved []int
			for p := 0; p < c.NumProcs(); p++ {
				if rng.Intn(2) == 0 {
					involved = append(involved, p)
				}
			}
			if len(involved) == 0 {
				involved = []int{rng.Intn(c.NumProcs())}
			}
			for p := 0; p < c.NumProcs(); p++ {
				for i, id := range c.ProcEvents(computation.ProcID(p)) {
					var v int64
					if i > 0 && rng.Float64() < 0.6 {
						v = 1
					}
					c.SetVar("x", id, v)
				}
			}
			want := lattice.Definitely(c, func(cc *computation.Computation, k computation.Cut) bool {
				front := cc.Frontier(k)
				for _, p := range involved {
					if cc.Var("x", front[p]) == 0 {
						return false
					}
				}
				return true
			})
			got, err := residue(c, pred.Spec{Family: pred.Conjunctive, Var: "x"}, involved)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got != want {
				t.Errorf("seed %d (involved %v): rebuilt Definitely %v, lattice %v", seed, involved, got, want)
			}
			outcomes[want]++
		}
		if outcomes[true] == 0 || outcomes[false] == 0 {
			t.Errorf("one-sided outcomes %v", outcomes)
		}
		t.Logf("Definitely outcomes: %v", outcomes)
	})

	t.Run("inflight", func(t *testing.T) {
		refused, multi := 0, 0
		outcomes := map[bool]int{}
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gen.Random(gen.Params{Seed: seed, Procs: 3 + int(seed%2), Events: 4, MsgFrac: 0.5 + rng.Float64()})
			w := relsum.InFlightWeight(c)
			unit := true
			for id := 0; id < c.NumEvents(); id++ {
				if d := w(c.Event(computation.EventID(id))); d > 1 || d < -1 {
					unit = false
				}
			}
			if !unit {
				multi++
			}
			occupancy := func(cc *computation.Computation, k computation.Cut) int64 {
				var n int64
				for _, m := range cc.Messages() {
					if k.Contains(cc.Event(m.Send)) && !k.Contains(cc.Event(m.Receive)) {
						n++
					}
				}
				return n
			}
			lo, hi := relsum.InFlightRangePar(c, 1, nil)
			k := lo - 1 + rng.Int63n(hi-lo+3)
			for _, rel := range []relsum.Relop{relsum.Eq, relsum.Ne, relsum.Lt, relsum.Le, relsum.Gt, relsum.Ge} {
				got, err := residue(c, pred.Spec{Family: pred.InFlight, Rel: rel, K: k}, nil)
				if rel == relsum.Eq && !unit {
					if !errors.Is(err, relsum.ErrNotUnitStep) {
						t.Errorf("seed %d: inflight == %d over multi-message events: got %v, %v; want ErrNotUnitStep", seed, k, got, err)
					}
					refused++
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: inflight %v %d: %v", seed, rel, k, err)
				}
				want := lattice.Definitely(c, func(cc *computation.Computation, cut computation.Cut) bool {
					return rel.Eval(occupancy(cc, cut), k)
				})
				if got != want {
					t.Errorf("seed %d: inflight %v %d: rebuilt Definitely %v, lattice %v", seed, rel, k, got, want)
				}
				outcomes[want]++
			}
		}
		if multi == 0 || multi == seeds || outcomes[true] == 0 || outcomes[false] == 0 {
			t.Errorf("%d of %d computations have multi-message events, Definitely outcomes %v; want both kinds of each", multi, seeds, outcomes)
		}
		t.Logf("%d multi-message computations, %d == refusals, Definitely outcomes %v", multi, refused, outcomes)
	})
}
