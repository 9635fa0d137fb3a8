package singular

import (
	"github.com/distributed-predicates/gpd/internal/chains"
	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/par"
)

// detectSubsets is general algorithm A (Section 3.3): enumerate all
// selections of one process per clause, restrict each clause's candidates
// to the selected process (a totally ordered queue), and run the CPDHB
// elimination for each selection. The number of selections is at most k^g
// for g clauses of at most k literals.
func detectSubsets(
	c *computation.Computation,
	p *Predicate,
	cands [][]computation.EventID,
	workers int,
) (Result, error) {
	// Split each clause's candidates by hosting process; keep only
	// processes that actually have true events.
	perClause := make([][][]computation.EventID, len(cands))
	for i, t := range cands {
		byProc := make(map[computation.ProcID][]computation.EventID)
		for _, id := range t {
			pr := c.Event(id).Proc
			byProc[pr] = append(byProc[pr], id)
		}
		// Deterministic order: follow the clause's literal order.
		for _, l := range p.Clauses[i] {
			if q, ok := byProc[l.Proc]; ok {
				perClause[i] = append(perClause[i], q)
			}
		}
	}
	return runSelections(c, perClause, ProcessSubsets, workers), nil
}

// detectChains is general algorithm B (Section 3.3): cover each clause's
// true events with a minimum number of chains of the happened-before order
// (Dilworth via matching) and enumerate selections of one chain per
// clause. Each chain is totally ordered by causality, so the CPDHB
// elimination is sound on it; the number of selections is at most c^g
// where c bounds the cover sizes. Since the per-process split of algorithm
// A is itself a chain cover (usually not minimum), B never tries more
// combinations than A.
func detectChains(
	c *computation.Computation,
	cands [][]computation.EventID,
	workers int,
) (Result, error) {
	perClause := make([][][]computation.EventID, len(cands))
	for i, t := range cands {
		cover := chains.CoverPar(len(t), func(a, b int) bool {
			return c.Precedes(t[a], t[b])
		}, workers)
		for _, chain := range cover {
			q := make([]computation.EventID, len(chain))
			for j, idx := range chain {
				q[j] = t[idx]
			}
			perClause[i] = append(perClause[i], q)
		}
	}
	return runSelections(c, perClause, ChainCover, workers), nil
}

// runSelections enumerates the cartesian product of queue choices, running
// the elimination for each selection until one succeeds. With workers > 1
// selections are drawn from the odometer in blocks, eliminated
// concurrently (eliminateQueues is a pure function of the queues and the
// sealed computation), and merged back in odometer order — so the first
// successful selection, and the combination/elimination totals up to it,
// are exactly the sequential ones. Work past the first success within a
// block is speculative and discarded.
func runSelections(
	c *computation.Computation,
	perClause [][][]computation.EventID,
	strategy Strategy,
	workers int,
) Result {
	res := Result{Strategy: strategy}
	for i := range perClause {
		if len(perClause[i]) == 0 {
			return res // a clause with no true events at all
		}
	}
	sel := make([]int, len(perClause))
	clock := func(id computation.EventID) []int32 { return c.Clock(id) }
	proc := func(id computation.EventID) int { return int(c.Event(id).Proc) }
	// step advances the odometer, reporting false on wrap-around.
	step := func() bool {
		for i := 0; i < len(sel); i++ {
			sel[i]++
			if sel[i] < len(perClause[i]) {
				return true
			}
			sel[i] = 0
		}
		return false
	}
	if workers <= 1 {
		queues := make([][]computation.EventID, len(perClause))
		for {
			for i, s := range sel {
				queues[i] = perClause[i][s]
			}
			res.Combinations++
			found, witness, elims := eliminateQueues(queues, clock, proc)
			res.Eliminations += elims
			if found {
				res.Found = true
				res.Witness = witness
				return finish(c, res)
			}
			if !step() {
				return res
			}
		}
	}
	type outcome struct {
		found   bool
		witness []computation.EventID
		elims   int
	}
	// Blocks sized so par.Do's chunk floor still yields one chunk per
	// worker; this also bounds the speculative overshoot per block.
	block := workers * 16
	exhausted := false
	for !exhausted {
		var sels [][]int
		for len(sels) < block && !exhausted {
			sels = append(sels, append([]int(nil), sel...))
			exhausted = !step()
		}
		out := make([]outcome, len(sels))
		par.Do(workers, len(sels), func(lo, hi int) {
			queues := make([][]computation.EventID, len(perClause))
			for i := lo; i < hi; i++ {
				for j, s := range sels[i] {
					queues[j] = perClause[j][s]
				}
				found, witness, elims := eliminateQueues(queues, clock, proc)
				out[i] = outcome{found, witness, elims}
			}
		})
		for i := range sels {
			res.Combinations++
			res.Eliminations += out[i].elims
			if out[i].found {
				res.Found = true
				res.Witness = out[i].witness
				return finish(c, res)
			}
		}
	}
	return res
}
