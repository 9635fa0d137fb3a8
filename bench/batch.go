package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/distributed-predicates/gpd"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// batch_sweep: no server. One sweep runs gpd.Detect over every cell the
// paper and the extensions claim polynomial, at three sizes, plus the
// alternative strategies and worker counts and one exponential lattice
// cell as the paper's baseline. A run repeats the sweep until its time is
// up; every sweep is the same work, so work counters must repeat exactly.

// sweepSizes are processes x events per process.
var sweepSizes = [][2]int{{8, 32}, {16, 64}, {32, 128}}

// oracleSize is small enough for the exhaustive lattice to decide every
// cell in set-up, which is what the polynomial routes are checked against;
// latticeSize is the traced run's exponential baseline cell. (At 6x6 the
// oracle's ten lattice sweeps made set-up vary fourfold with the seed.)
var (
	oracleSize  = [2]int{6, 4}
	latticeSize = [2]int{6, 6}
)

// minSweeps is the fewest sweeps a run reports a median over.
const minSweeps = 5

const batchVar = "x"

// equilevelLevel is the level the equilevel cell asks about. The level
// set is swept breadth-first from the bottom, so the route is polynomial
// only for a fixed level (O(procs^level) cuts); the middle level of a
// 32x128 computation does not finish.
const equilevelLevel = 4

// call is one prepared gpd.Detect invocation.
type call struct {
	cell   string
	size   int // index into sweepSizes; -1 for the strategy, worker and lattice extras
	c      *gpd.Computation
	spec   gpd.Spec
	opts   []gpd.Option
	events int
}

// buildCell prepares one cell's computation and predicate at a size.
func buildCell(cell string, seed int64, procs, events int) (*gpd.Computation, gpd.Spec, []gpd.Option, error) {
	p := gen.Params{Seed: seed, Procs: procs, Events: events, MsgFrac: 0.3}
	random := func() *gpd.Computation { return gen.Random(p) }
	boolean := func(c *gpd.Computation) *gpd.Computation {
		gen.BoolVar(seed+1, c, batchVar, 0.3)
		return c
	}
	falseStart := func(c *gpd.Computation) *gpd.Computation { // the replay and slice routes need false initial states
		for q := 0; q < procs; q++ {
			c.SetVar(batchVar, c.Initial(computation.ProcID(q)).ID, 0)
		}
		return c
	}
	switch cell {
	case "all":
		return falseStart(boolean(random())), pred.Spec{Family: pred.Conjunctive, Var: batchVar}, nil, nil
	case "def_all":
		return falseStart(boolean(random())), pred.Spec{Family: pred.Conjunctive, Var: batchVar}, []gpd.Option{gpd.WithModality(gpd.ModalityDefinitely)}, nil
	case "sum_eq", "sum_ge":
		c := random()
		gen.UnitStepVar(seed+1, c, batchVar)
		_, hi := relsum.SumRange(c, batchVar) // aim at the maximum: reachable, and as far from the start as any target
		rel := gpd.Eq
		if cell == "sum_ge" {
			rel = gpd.Ge
		}
		return c, pred.Spec{Family: pred.Sum, Var: batchVar, Rel: rel, K: hi}, nil, nil
	case "count":
		return boolean(random()), pred.Spec{Family: pred.Count, Var: batchVar, Rel: gpd.Ge, K: int64(procs - 1)}, nil, nil
	case "xor":
		return boolean(random()), pred.Spec{Family: pred.Xor, Var: batchVar}, nil, nil
	case "levels":
		return boolean(random()), pred.Spec{Family: pred.Levels, Var: batchVar, Levels: []int{0, procs}}, nil, nil
	case "inflight":
		return random(), pred.Spec{Family: pred.InFlight, Rel: gpd.Ge, K: 2}, nil, nil
	case "equilevel":
		return boolean(random()), pred.Spec{Family: pred.Equilevel, Var: batchVar, K: equilevelLevel}, nil, nil
	case "cnf":
		const group = 2 // receive-ordered with respect to groups of two: the Section 3.2 special case
		c := boolean(gen.GroupFunnel(p, group, true))
		spec := pred.Spec{Family: pred.CNF, Var: batchVar}
		for q := 0; q < procs; q += group {
			spec.Clauses = append(spec.Clauses, pred.Clause{{Proc: q}, {Proc: q + 1}})
		}
		return c, spec, []gpd.Option{gpd.WithStrategy(gpd.StrategyReceiveOrdered)}, nil
	}
	return nil, gpd.Spec{}, nil, fmt.Errorf("unknown cell %q", cell)
}

// holdsAt evaluates a spec at one consistent cut, for the lattice oracle.
func holdsAt(c *gpd.Computation, s gpd.Spec, inflight func(computation.Event) int64, k gpd.Cut) bool {
	truth := func(e computation.Event) bool { return c.Var(s.Var, e.ID) != 0 }
	count := func() int { return c.CountTrue(k, truth) }
	switch s.Family {
	case pred.Conjunctive:
		return count() == len(k)
	case pred.Equilevel:
		return count() == len(k) && int64(k.Size()) == s.K
	case pred.Sum:
		return s.Rel.Eval(c.SumVar(s.Var, k), s.K)
	case pred.Count:
		return s.Rel.Eval(int64(count()), s.K)
	case pred.Xor:
		return count()%2 == 1
	case pred.Levels:
		n := count()
		for _, m := range s.Levels {
			if m == n {
				return true
			}
		}
		return false
	case pred.InFlight:
		var n int64
		for p := range k {
			for i := 1; i <= k[p]; i++ {
				n += inflight(c.EventAt(computation.ProcID(p), i))
			}
		}
		return s.Rel.Eval(n, s.K)
	case pred.CNF:
		front := c.Frontier(k)
		for _, cl := range s.Clauses {
			sat := false
			for _, l := range cl {
				if truth(c.Event(front[l.Proc])) != l.Negated {
					sat = true
				}
			}
			if !sat {
				return false
			}
		}
		return true
	}
	return false
}

// checkAgainstLattice decides every cell at oracleSize both ways.
func checkAgainstLattice(seed int64, rep *report) error {
	for _, cell := range batchCells {
		c, spec, opts, err := buildCell(cell, seed, oracleSize[0], oracleSize[1])
		if err != nil {
			return err
		}
		got, err := gpd.Detect(c, spec, opts...)
		if err != nil {
			return fmt.Errorf("cell %s at %v: %w", cell, oracleSize, err)
		}
		w := relsum.InFlightWeight(c)
		at := func(cc *gpd.Computation, k gpd.Cut) bool { return holdsAt(cc, spec, w, k) }
		var want bool
		if cell == "def_all" {
			want = gpd.DefinitelyGeneric(c, at)
		} else {
			want, _ = gpd.PossiblyGeneric(c, at)
		}
		rep.attempted++
		if got.Holds != want {
			rep.fail("cell %s at %dx%d: Detect says %v, the lattice says %v", cell, oracleSize[0], oracleSize[1], got.Holds, want)
		}
	}
	return nil
}

// workOf sums a run's work counters.
func workOf(r gpd.Report) int64 {
	var n int64
	for _, v := range r.Work.Counters {
		n += v
	}
	return n
}

// timing is one call's outcome in one sweep.
type timing struct {
	d     time.Duration
	work  int64
	holds bool
}

func runBatch(ctx context.Context, opt options) (*report, error) {
	rep := newReport()
	// Set-up: generate every input and run the lattice oracle. Repeated
	// for a median, like the online workloads' set-up.
	var calls []call
	var lattice *gpd.Computation
	var setups []float64
	var oracle *report
	sizes := sweepSizes
	if opt.scale < 1 { // smoke tests: leave out the largest size
		sizes = sizes[:len(sizes)-1]
	}
	for i := 0; i < opt.setups(); i++ {
		t0 := time.Now()
		calls = calls[:0]
		for _, cell := range batchCells {
			for si, sz := range sizes {
				c, spec, opts, err := buildCell(cell, opt.seed, sz[0], sz[1])
				if err != nil {
					return nil, err
				}
				// One worker: the cells are the paper's sequential algorithms
				// (work next to wall time), and a run that needs both cores
				// swings with whatever else the host runs on them. The
				// two-worker route is the par cells' business.
				calls = append(calls, call{cell, si, c, spec, append(opts, gpd.WithParallelism(1)), sz[0] * sz[1]})
			}
		}
		mid, big := sizes[len(sizes)-2], sizes[len(sizes)-1]
		c, spec, _, err := buildCell("all", opt.seed, mid[0], mid[1])
		if err != nil {
			return nil, err
		}
		calls = append(calls,
			call{"all.replay", -1, c, spec, []gpd.Option{gpd.WithStrategy(gpd.StrategyReplay)}, mid[0] * mid[1]},
			call{"all.slice", -1, c, spec, []gpd.Option{gpd.WithStrategy(gpd.StrategySlice), gpd.WithParallelism(1)}, mid[0] * mid[1]})
		c, spec, _, err = buildCell("sum_eq", opt.seed, big[0], big[1])
		if err != nil {
			return nil, err
		}
		calls = append(calls,
			call{"sum_eq.par1", -1, c, spec, []gpd.Option{gpd.WithParallelism(1)}, big[0] * big[1]},
			call{"sum_eq.par2", -1, c, spec, []gpd.Option{gpd.WithParallelism(2)}, big[0] * big[1]})
		lattice, _, _, err = buildCell("all", opt.seed, latticeSize[0], latticeSize[1])
		if err != nil {
			return nil, err
		}
		oracle = newReport()
		if err := checkAgainstLattice(opt.seed, oracle); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.merge(oracle)
	rep.set("setup_s", median(setups), len(setups))
	cuts := gpd.CountCuts(lattice)
	var sweepEvents float64
	for _, cl := range calls {
		sweepEvents += float64(cl.events)
	}

	epoch := time.Now()
	log := newSpanLog(epoch, 0)
	var sweeps [][]timing
	var walls, cpus, allocs, p50s, p90s, latticeRates []float64
	var ms0 runtime.MemStats
	start := time.Now()
	for n := 0; n < minSweeps || time.Since(start).Seconds() < opt.seconds*opt.scale; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("timed out or interrupted: %w", err)
		}
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := selfCPU(), time.Now()
		sweep := make([]timing, len(calls))
		var lat []float64
		for i, cl := range calls {
			c0 := time.Now()
			r, err := gpd.Detect(cl.c, cl.spec, cl.opts...)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", cl.cell, err)
			}
			sweep[i] = timing{time.Since(c0), workOf(r), r.Holds}
			lat = append(lat, ms(sweep[i].d))
			rep.attempted++
			if opt.trace {
				log.add("batch."+cl.cell, fmt.Sprintf("%s-%d", cl.cell, cl.size), 0, c0, sweep[i].d)
			}
		}
		wall := time.Since(t0)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, float64(selfCPU()-cpu0)/float64(time.Microsecond)/sweepEvents)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/sweepEvents)
		p50s, p90s = append(p50s, quantile(lat, 0.5)), append(p90s, quantile(lat, 0.9))
		sweeps = append(sweeps, sweep)
		if opt.trace {
			// The paper's exponential baseline: every consistent cut of the
			// small computation. Outside the sweep's own timing — how many
			// cuts a seed's message pattern leaves varies several-fold.
			l0 := time.Now()
			gpd.PossiblyGeneric(lattice, func(*gpd.Computation, gpd.Cut) bool { return false })
			latticeRates = append(latticeRates, float64(cuts)/time.Since(l0).Seconds())
		}
	}

	// Every sweep must reproduce the first: same verdicts, same work.
	var workTotal int64
	for i, cl := range calls {
		workTotal += sweeps[0][i].work
		for n := range sweeps {
			if sweeps[n][i].holds != sweeps[0][i].holds || sweeps[n][i].work != sweeps[0][i].work {
				rep.fail("cell %s: sweep %d gives verdict %v work %d, sweep 0 gave %v and %d", cl.cell, n, sweeps[n][i].holds, sweeps[n][i].work, sweeps[0][i].holds, sweeps[0][i].work)
			}
		}
	}
	find := func(cell string, size int) int {
		for i, cl := range calls {
			if cl.cell == cell && cl.size == size {
				return i
			}
		}
		panic("no call " + cell) // the call list above is fixed
	}
	medianOf := func(i int) float64 {
		var ds []float64
		for n := range sweeps {
			ds = append(ds, float64(sweeps[n][i].d))
		}
		return median(ds)
	}
	// The strategies decide the same computation, so they must agree, and
	// the worker count must not change the work.
	base, replay, slice := find("all", len(sizes)-2), find("all.replay", -1), find("all.slice", -1)
	par1, par2 := find("sum_eq.par1", -1), find("sum_eq.par2", -1)
	if v := sweeps[0][base].holds; sweeps[0][replay].holds != v || sweeps[0][slice].holds != v {
		rep.fail("strategies disagree on all(x): batch %v, replay %v, slice %v", v, sweeps[0][replay].holds, sweeps[0][slice].holds)
	}
	if a, b := sweeps[0][par1], sweeps[0][par2]; a.holds != b.holds || a.work != b.work {
		rep.fail("parallelism changes sum_eq: 1 worker %v/%d, 2 workers %v/%d", a.holds, a.work, b.holds, b.work)
	}

	rep.set("events_per_s", sweepEvents/median(walls), len(walls))
	rep.set("cpu_us_per_event", median(cpus), len(cpus))
	rep.set("alloc_bytes_per_event", median(allocs), len(allocs))
	rep.set("verdict_ms_p50", median(p50s), len(p50s)*len(calls))
	rep.set("verdict_ms_p90", median(p90s), len(p90s)*len(calls))
	if !opt.trace {
		return rep, nil
	}
	rep.set("batch.sweep_s", median(walls), len(walls))
	rep.set("batch.work_total", float64(workTotal), len(sweeps))
	for _, cell := range batchCells {
		var sizes, times []float64
		for i, cl := range calls {
			if cl.cell != cell || cl.size < 0 {
				continue
			}
			sizes, times = append(sizes, float64(cl.events)), append(times, medianOf(i))
			if cl.size == len(sizes)-1 { // per-event figures at the largest size
				rep.set("batch."+cell+".ns_per_event", medianOf(i)/float64(cl.events), len(sweeps))
				rep.set("batch."+cell+".work_per_event", float64(sweeps[0][i].work)/float64(cl.events), len(sweeps))
			}
		}
		rep.set("batch."+cell+".exponent", logLogSlope(sizes, times), len(sizes))
	}
	rep.set("batch.replay_ratio", medianOf(replay)/medianOf(base), len(sweeps))
	rep.set("batch.slice_ratio", medianOf(slice)/medianOf(base), len(sweeps))
	rep.set("par.speedup_2", medianOf(par1)/medianOf(par2), len(sweeps))
	rep.set("par.work_ratio", float64(sweeps[0][par2].work)/float64(max(sweeps[0][par1].work, 1)), len(sweeps))
	rep.set("lattice.cuts_per_s", median(latticeRates), len(latticeRates))
	return rep, writeTrace(opt.outDir, "batch_sweep", opt.seed, rep, log)
}
