package detect

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/maxflow"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// coreOracle recomputes from scratch what one RangeCore should report:
// the window is every delivered event past the core's cut that the
// common frontier has not folded away, its constraints the unreduced
// list — one arc per process per event.
type coreOracle struct {
	procs    int
	baseline int64
	last     [][]int64 // latest clock per process delivered since the core started
	window   []Event   // delivered since the core started, not yet folded away
	change   []int64   // window[i]'s change of the sum
}

func newCoreOracle(init []int64) *coreOracle {
	o := &coreOracle{procs: len(init), last: make([][]int64, len(init))}
	for _, v := range init {
		o.baseline += v
	}
	return o
}

func (o *coreOracle) step(ev Event, change int64) {
	o.window, o.change = append(o.window, ev), append(o.change, change)
	o.last[ev.Proc] = ev.VC
}

// flush returns the window's extrema, then folds away what every
// process's latest event has in its past.
func (o *coreOracle) flush() (lo, hi int64) {
	slot := make(map[[2]int64]int, len(o.window))
	for i, ev := range o.window {
		slot[[2]int64{int64(ev.Proc), ev.VC[ev.Proc]}] = i
	}
	var requires [][2]int
	for i, ev := range o.window {
		for q, v := range ev.VC {
			if q == ev.Proc {
				v--
			}
			if u, ok := slot[[2]int64{int64(q), v}]; ok {
				requires = append(requires, [2]int{i, u})
			}
		}
	}
	best, _, worst, _ := maxflow.MaxClosurePairTraced(o.change, requires, 1, nil)
	lo, hi = o.baseline-worst, o.baseline+best

	floor := make([]int64, o.procs)
	for q := range floor {
		floor[q] = 1 << 62
	}
	for _, vc := range o.last {
		if vc == nil {
			return lo, hi
		}
		for q, v := range vc {
			floor[q] = min(floor[q], v)
		}
	}
	kept := 0
	for i, ev := range o.window {
		if ev.VC[ev.Proc] <= floor[ev.Proc] {
			o.baseline += o.change[i]
			continue
		}
		o.window[kept], o.change[kept] = ev, o.change[i]
		kept++
	}
	o.window, o.change = o.window[:kept], o.change[:kept]
	return lo, hi
}

// TestRangeCoreMatchesFromScratch drives a core from the start of random
// streams and a second one joining at a mid-stream cut — whose first
// event per process has no previous clock, so its requirement list is
// the unreduced one — and checks every flush of both against the batch
// kernel over the oracle's window.
func TestRangeCoreMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(5)
		c := gen.Random(gen.Params{Seed: seed, Procs: procs, Events: 2 + rng.Intn(10), MsgFrac: rng.Float64() * 1.5})
		if seed%2 == 0 {
			gen.UnitStepVar(seed+1, c, "x")
		} else {
			gen.ArbitraryStepVar(seed+1, c, "x", 7)
		}
		events := LinearizeEvents(c, func(e computation.Event, ev *Event) { ev.Val = c.Var("x", e.ID) })
		val := make([]int64, procs) // current value per process
		for p := range val {
			val[p] = c.Var("x", c.Initial(computation.ProcID(p)).ID)
		}
		type pair struct {
			core   *RangeCore
			oracle *coreOracle
		}
		start := func(cut []int64) pair {
			core, err := NewRangeCore(procs, PayloadValue, val, cut)
			if err != nil {
				t.Fatal(err)
			}
			return pair{core, newCoreOracle(val)}
		}
		cores := []pair{start(nil)}
		view := sumView(pred.Spec{Family: pred.Sum, Var: "x", Rel: relsum.Ge}, cores[0].core)
		joinAt := rng.Intn(len(events) + 1)
		delivered := make([]int64, procs)
		for i, ev := range events {
			if i == joinAt {
				cores = append(cores, start(append([]int64(nil), delivered...)))
			}
			change := ev.Val - val[ev.Proc]
			val[ev.Proc] = ev.Val
			delivered[ev.Proc] = ev.VC[ev.Proc]
			for _, pc := range cores {
				if err := pc.core.Step(ev); err != nil && !errors.Is(err, relsum.ErrNotUnitStep) {
					t.Fatal(err)
				}
				pc.oracle.step(ev, change)
			}
			if rng.Intn(3) != 0 && i != len(events)-1 {
				continue
			}
			for k, pc := range cores {
				lo, hi, solved := pc.core.Flush(relsum.Everything)
				if k == 0 {
					view.Fold(lo, hi, solved)
				}
				if wantLo, wantHi := pc.oracle.flush(); lo != wantLo || hi != wantHi {
					t.Fatalf("seed %d event %d core %d: flush [%d,%d], from scratch [%d,%d]", seed, i, k, lo, hi, wantLo, wantHi)
				}
				if pc.core.Window() != len(pc.oracle.window) {
					t.Fatalf("seed %d event %d core %d: window %d, want %d", seed, i, k, pc.core.Window(), len(pc.oracle.window))
				}
			}
		}
		if wantMin, wantMax := relsum.SumRange(c, "x"); view.min != wantMin || view.max != wantMax {
			t.Fatalf("seed %d: view range [%d,%d], SumRange [%d,%d]", seed, view.min, view.max, wantMin, wantMax)
		}
	}
}
