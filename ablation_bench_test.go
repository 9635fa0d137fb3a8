// Ablation benchmarks for the design choices called out in DESIGN.md:
// vector-clock precedence versus on-the-fly graph search, and the offline
// conjunctive detector versus the online streaming checker on the same
// observation sequence.
package gpd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/gen"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

// BenchmarkAblationPrecedence contrasts O(1) vector-clock happened-before
// tests with DFS reachability. The gap is the reason every detector in the
// library runs on precomputed clocks.
func BenchmarkAblationPrecedence(b *testing.B) {
	c := gen.Random(gen.Params{Seed: 9, Procs: 16, Events: 60, MsgFrac: 0.5})
	rng := rand.New(rand.NewSource(3))
	n := c.NumEvents()
	pairs := make([][2]computation.EventID, 512)
	for i := range pairs {
		pairs[i] = [2]computation.EventID{
			computation.EventID(rng.Intn(n)),
			computation.EventID(rng.Intn(n)),
		}
	}
	b.Run("vector-clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = c.Precedes(p[0], p[1])
		}
	})
	b.Run("graph-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = c.PrecedesSlow(p[0], p[1])
		}
	})
}

// BenchmarkAblationSealCost measures Seal itself (topological sort plus
// clock computation) — the one-time cost the O(1) queries amortize.
func BenchmarkAblationSealCost(b *testing.B) {
	for _, procs := range []int{8, 32} {
		base := gen.Random(gen.Params{Seed: 11, Procs: procs, Events: 100, MsgFrac: 0.5})
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := base.Clone()
				if err := c.Seal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOnlineVsOffline replays one linearization of a random
// computation through the online checker and compares against the offline
// batch detector on the same trace.
func BenchmarkAblationOnlineVsOffline(b *testing.B) {
	c := gen.Random(gen.Params{Seed: 13, Procs: 8, Events: 120, MsgFrac: 0.4})
	truth := gen.BoolTables(14, c, 0.2)
	for p := range truth {
		truth[p][0] = false
	}
	// Precompute the observation stream (proc, clock) in one run order.
	type obs struct {
		proc int
		vc   vclock.VC
	}
	var stream []obs
	clocks := make([]*vclock.Clock, c.NumProcs())
	for p := range clocks {
		clocks[p] = vclock.NewClock(p, c.NumProcs())
	}
	stampOf := make(map[computation.EventID]vclock.VC)
	k := c.InitialCut()
	for !k.Equal(c.FinalCut()) {
		id := c.Enabled(k)[0]
		e := c.Event(id)
		var incoming vclock.VC
		for _, pre := range c.DirectPreds(id) {
			if c.Event(pre).Proc != e.Proc {
				if incoming == nil {
					incoming = stampOf[pre].Clone()
				} else {
					incoming.Merge(stampOf[pre])
				}
			}
		}
		var stamp vclock.VC
		if incoming != nil {
			stamp = clocks[int(e.Proc)].Receive(incoming)
		} else {
			stamp = clocks[int(e.Proc)].Event()
		}
		stampOf[id] = stamp
		if truth[int(e.Proc)][e.Index] {
			stream = append(stream, obs{proc: int(e.Proc), vc: stamp})
		}
		k = c.Execute(k, e.Proc)
	}
	procs := make([]int, c.NumProcs())
	for p := range procs {
		procs[p] = p
	}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := conjunctive.NewChecker(procs)
			for _, o := range stream {
				if ch.Observe(o.proc, o.vc) {
					break
				}
			}
		}
	})
	locals := make(map[computation.ProcID]conjunctive.LocalPredicate, len(truth))
	for p, row := range truth {
		locals[computation.ProcID(p)] = func(e computation.Event) bool { return row[e.Index] }
	}
	b.Run("offline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conjunctive.DetectTraced(c, locals, nil)
		}
	})
}
