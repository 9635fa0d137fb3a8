package chains

import (
	"math/rand"
	"testing"
)

func TestTotalOrderIsOneChain(t *testing.T) {
	less := func(i, j int) bool { return i < j }
	cover := Cover(5, less)
	if len(cover) != 1 {
		t.Fatalf("cover = %v, want one chain", cover)
	}
	if len(cover[0]) != 5 {
		t.Fatalf("chain = %v, want all 5 elements", cover[0])
	}
	for i := 1; i < len(cover[0]); i++ {
		if !less(cover[0][i-1], cover[0][i]) {
			t.Fatalf("chain not increasing: %v", cover[0])
		}
	}
}

func TestAntichainNeedsNChains(t *testing.T) {
	less := func(i, j int) bool { return false }
	cover := Cover(4, less)
	if len(cover) != 4 {
		t.Fatalf("antichain cover = %v, want 4 singleton chains", cover)
	}
	if got := len(Cover(4, less)); got != 4 {
		t.Fatalf("cover size = %d, want 4", got)
	}
}

func TestTwoParallelChains(t *testing.T) {
	// Elements 0-2 form one chain, 3-5 another, incomparable across.
	less := func(i, j int) bool {
		return (i < 3) == (j < 3) && i < j
	}
	cover := Cover(6, less)
	if len(cover) != 2 {
		t.Fatalf("cover size = %d, want 2 (%v)", len(cover), cover)
	}
}

func TestEmptyPoset(t *testing.T) {
	cover := Cover(0, func(i, j int) bool { return false })
	if len(cover) != 0 {
		t.Fatalf("cover = %v, want empty", cover)
	}
}

// bruteWidth finds the maximum antichain by subset enumeration.
func bruteWidth(n int, less func(i, j int) bool) int {
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		size := 0
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			size++
			for j := 0; j < n; j++ {
				if i != j && mask&(1<<j) != 0 && less(i, j) {
					ok = false
					break
				}
			}
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

func TestDilworthOnRandomPosets(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(9)
		// Random DAG with transitive closure: i < j only if i's rank
		// below j's, then close transitively.
		rel := make([][]bool, n)
		for i := range rel {
			rel[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					rel[i][j] = true
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rel[i][k] && rel[k][j] {
						rel[i][j] = true
					}
				}
			}
		}
		less := func(i, j int) bool { return rel[i][j] }
		cover := Cover(n, less)
		// Every element exactly once.
		seen := make([]bool, n)
		for _, chain := range cover {
			for idx, x := range chain {
				if seen[x] {
					t.Fatalf("trial %d: element %d covered twice", trial, x)
				}
				seen[x] = true
				if idx > 0 && !less(chain[idx-1], x) {
					t.Fatalf("trial %d: chain %v not a chain", trial, chain)
				}
			}
		}
		for x, s := range seen {
			if !s {
				t.Fatalf("trial %d: element %d uncovered", trial, x)
			}
		}
		// Dilworth: |cover| == max antichain.
		if want := bruteWidth(n, less); len(cover) != want {
			t.Fatalf("trial %d: cover size %d, width %d", trial, len(cover), want)
		}
	}
}
