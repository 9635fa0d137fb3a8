// Package detect is the maporder fixture: map ranges whose iteration
// order escapes into consumers, appended slices, concatenations, and
// selections, next to every sanctioned order-independent idiom.
package detect

import "sort"

// checker is a stateful consumer: the order of Observe calls changes its
// internal elimination order, like the real conjunctive token checker.
type checker struct {
	seen []int
	work int
}

func (c *checker) Observe(proc int, vcs []int) { c.seen = append(c.seen, proc) }
func (c *checker) Count(n int)                 { c.work += n }
func (c *checker) At(proc int) int             { return proc }

// detector mirrors the pre-canonicalization conjunctive bug: Flush fed
// the checker straight out of the pending map, so the elimination order
// — and the work counters diffed by the agreement tests — varied run to
// run.
type detector struct {
	pending map[int][]int
	checker *checker
}

func (d *detector) flushLeaky() {
	for p, vcs := range d.pending {
		d.checker.Observe(p, vcs) // want `feeds iteration-dependent arguments to d\.Observe; the consumer sees entries in map order`
		delete(d.pending, p)
	}
}

func (d *detector) flushSorted() {
	procs := make([]int, 0, len(d.pending))
	for p := range d.pending {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		d.checker.Observe(p, d.pending[p])
		delete(d.pending, p)
	}
}

// appendLeak collects map values into an outer slice with no later sort.
func appendLeak(m map[string]int) []string {
	var names []string
	for name := range m {
		names = append(names, name) // want `appends iteration-dependent values to names without a later sort`
	}
	return names
}

// appendThenSort is the sanctioned collect-then-sort idiom.
func appendThenSort(m map[string]int) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// concatLeak builds a report string in map order.
func concatLeak(m map[string]int) string {
	out := ""
	for k := range m {
		out += k // want `concatenates iteration-dependent values onto out`
	}
	return out
}

// selectionLeak returns whichever entry the runtime happens to visit
// first — the order-dependent selection shape.
func selectionLeak(m map[int]bool) int {
	for p, bad := range m {
		if bad {
			return p // want `return of an iteration-dependent value`
		}
	}
	return -1
}

// selectLeak returns from a select case: the same selection as under a
// switch case, one statement kind further down.
func selectLeak(m map[int]bool, ch chan int) int {
	for p := range m {
		select {
		case <-ch:
			return p // want `return of an iteration-dependent value`
		default:
		}
	}
	return -1
}

// selectAppendLeak collects from a select case with no later sort.
func selectAppendLeak(m map[string]int, ch chan int) []string {
	var names []string
	for name := range m {
		select {
		case <-ch:
			names = append(names, name) // want `appends iteration-dependent values to names without a later sort`
		default:
		}
	}
	return names
}

// switchInitLeak feeds the consumer from a switch's init statement.
func (d *detector) switchInitLeak() int {
	n := 0
	for p, vcs := range d.pending {
		switch d.checker.Observe(p, vcs); len(vcs) { // want `feeds iteration-dependent arguments to d\.Observe`
		case 0:
			n++
		}
	}
	return n
}

// earlyExitLeak breaks after accumulating: the counter's value depends
// on which iterations ran before the exit landed.
func earlyExitLeak(m map[string]int, limit int) int {
	total := 0
	for _, v := range m {
		total += v
		if total > limit {
			break // want `early break out of a range .* after an order-dependent effect`
		}
	}
	return total
}

// keyedWrites, commutative accumulation, existence checks, reads through
// consumed results, and draining the current key are all order-
// independent and must pass.
func sanctioned(m map[string]int, c *checker) (int, bool) {
	out := make(map[string]int, len(m))
	sum := 0
	for k, v := range m {
		out[k] = v + 1 // keyed write
		sum += v       // commutative, no early exit
		_ = c.At(v)    // consumed result: a read, not a consumer
		delete(m, k)   // current-key drain
	}
	found := false
	for _, v := range m {
		if v > 0 {
			found = true // constant: which iteration set it is unobservable
			break
		}
	}
	return sum, found
}
