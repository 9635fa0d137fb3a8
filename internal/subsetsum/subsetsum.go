// Package subsetsum represents subset-sum instances ([Garey & Johnson,
// problem SP13]) and solves them exactly by dynamic programming. The paper
// reduces subset sum to detecting Possibly(x1+...+xn = k) with arbitrary
// per-event increments (Theorem 3); this package is the independent oracle
// used to validate that reduction.
package subsetsum

// Instance is a subset-sum instance: does some subset of Sizes sum to
// Target? Sizes must be positive, as in the classical formulation.
type Instance struct {
	Sizes  []int64
	Target int64
}

// Solve reports whether a subset of the sizes sums exactly to the target,
// and returns the indices of one such subset when it exists. Running time
// is O(n * target) via dense DP; callers keep targets laptop-sized.
func Solve(in Instance) (bool, []int) {
	if in.Target < 0 {
		return false, nil
	}
	if in.Target == 0 {
		return true, []int{}
	}
	// reach[s] = index+1 of the last element used to first reach sum s,
	// or 0 if unreached.
	reach := make([]int, in.Target+1)
	reach[0] = -1 // sentinel: reached with no elements
	for i, sz := range in.Sizes {
		if sz <= 0 || sz > in.Target {
			continue
		}
		// Iterate sums downward so every read of reach[s-sz] sees only
		// results of earlier elements; each element is used at most
		// once and reconstruction chains have strictly decreasing
		// indices.
		for s := in.Target; s >= sz; s-- {
			if reach[s] == 0 && reach[s-sz] != 0 {
				reach[s] = i + 1
			}
		}
	}
	if reach[in.Target] == 0 {
		return false, nil
	}
	// Reconstruct by walking back through first-reachers.
	var subset []int
	s := in.Target
	for s > 0 {
		i := reach[s] - 1
		subset = append(subset, i)
		s -= in.Sizes[i]
	}
	// Reverse for ascending order.
	for l, r := 0, len(subset)-1; l < r; l, r = l+1, r-1 {
		subset[l], subset[r] = subset[r], subset[l]
	}
	return true, subset
}

// Sum returns the total of the sizes at the given indices.
//
//lint:ignore testonly checks the subsets Solve returns (TestRandomAgainstBruteForce) and the ones TestTheorem3Reduction recovers from witness cuts
func Sum(sizes []int64, indices []int) int64 {
	var s int64
	for _, i := range indices {
		s += sizes[i]
	}
	return s
}
