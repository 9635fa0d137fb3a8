package detect

import (
	"sort"
	"strings"
	"testing"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
)

// families lists the registered families in stable order.
func families() []pred.Family {
	seen := make(map[pred.Family]bool)
	var out []pred.Family
	for key := range registry {
		if !seen[key.family] {
			seen[key.family] = true
			out = append(out, key.family)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestRegistryShape: every family the package registers must be present
// under both modalities with structurally consistent capabilities —
// this is the invariant the session layer and the replay route rely on
// when they resolve detectors without switching on the family.
func TestRegistryShape(t *testing.T) {
	fams := families()
	if len(fams) == 0 {
		t.Fatal("no families registered")
	}
	for _, f := range fams {
		for _, m := range []Modality{ModalityPossibly, ModalityDefinitely} {
			e, ok := Lookup(f, m)
			if !ok {
				t.Errorf("%v registered under one modality but not %v", f, m)
				continue
			}
			if e.Batch == nil {
				t.Errorf("%v/%v: nil Batch escaped Register", f, m)
			}
			if e.Caps.Incremental != (e.New != nil) {
				t.Errorf("%v/%v: Incremental=%v but New=%v", f, m, e.Caps.Incremental, e.New != nil)
			}
			if e.Caps.Incremental != (e.Linearize != nil) {
				t.Errorf("%v/%v: Incremental=%v but Linearize=%v", f, m, e.Caps.Incremental, e.Linearize != nil)
			}
		}
	}

	// The streaming server's contract: these families run online.
	for _, f := range []pred.Family{pred.Conjunctive, pred.Sum, pred.Count, pred.Xor, pred.Levels, pred.InFlight} {
		if e, ok := Lookup(f, ModalityPossibly); !ok || !e.Caps.Incremental {
			t.Errorf("%v: want incremental possibly detector", f)
		}
	}
	// CNF is batch-only: possibly needs the exploding-combination search,
	// definitely the full lattice.
	if e, ok := Lookup(pred.CNF, ModalityPossibly); !ok || e.Caps.Incremental {
		t.Error("cnf: want a batch-only registration")
	}
}

// mustPanic runs f and checks it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one containing %q", r, want)
		}
	}()
	f()
}

// stubBatch satisfies Entry.Batch for throwaway registrations.
func stubBatch(c *computation.Computation, s pred.Spec, o Options, tr *obs.Trace) (Result, error) {
	return Result{}, nil
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	// An out-of-range family value keeps these throwaway registrations
	// from colliding with the real ones.
	const fake = pred.Family(90)
	mustPanic(t, "no batch detector", func() {
		Register(Entry{Family: fake, Modality: ModalityPossibly})
	})
	ok := Entry{Family: fake, Modality: ModalityPossibly, Batch: stubBatch}
	Register(ok)
	mustPanic(t, "duplicate registration", func() { Register(ok) })
	mustPanic(t, "needs New and Linearize", func() {
		Register(Entry{Family: fake, Modality: ModalityDefinitely, Batch: stubBatch, Caps: Caps{Incremental: true}})
	})
}
