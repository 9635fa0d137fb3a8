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
	var out []pred.Family
	for f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fakeFamily is an out-of-range family value that keeps the throwaway
// registrations of TestRegisterRejectsBadEntries from colliding with
// the real ones.
const fakeFamily = pred.Family(90)

// TestRegistryShape: every family the package registers has one entry
// serving both modalities, with structurally consistent capabilities —
// this is the invariant the session layer and the replay route rely on
// when they resolve detectors without switching on the family.
func TestRegistryShape(t *testing.T) {
	var real []pred.Family
	for _, f := range families() {
		if f != fakeFamily {
			real = append(real, f)
		}
	}
	if len(real) != 8 {
		t.Fatalf("registry holds %d families %v, want 8 (one entry each)", len(real), real)
	}
	for _, f := range real {
		e, ok := Lookup(f, ModalityPossibly)
		if !ok {
			t.Fatalf("%v: no entry", f)
		}
		if d, ok := Lookup(f, ModalityDefinitely); !ok || d.Family != f || d.Caps != e.Caps {
			t.Errorf("%v: Definitely resolves to %v %+v, want the Possibly entry %+v", f, d.Family, d.Caps, e.Caps)
		}
		if e.Possibly == nil || e.Definitely == nil {
			t.Errorf("%v: a nil batch kernel escaped Register", f)
		}
		if e.Caps.Incremental != (e.New != nil) {
			t.Errorf("%v: Incremental=%v but New=%v", f, e.Caps.Incremental, e.New != nil)
		}
		if e.Caps.Incremental != (e.Linearize != nil) {
			t.Errorf("%v: Incremental=%v but Linearize=%v", f, e.Caps.Incremental, e.Linearize != nil)
		}
		if e.Caps.Incremental == (e.Caps.Payload == PayloadNone) {
			t.Errorf("%v: Incremental=%v but Payload=%v", f, e.Caps.Incremental, e.Caps.Payload)
		}
	}
	if _, ok := Lookup(pred.Sum, Modality(0)); ok {
		t.Error("Lookup resolved an unknown modality")
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

// stubBatch satisfies a batch kernel for throwaway registrations.
func stubBatch(c *computation.Computation, s pred.Spec, o Options, tr *obs.Trace) (Result, error) {
	return Result{}, nil
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	mustPanic(t, "no batch detector", func() {
		Register(Entry{Family: fakeFamily, Possibly: stubBatch})
	})
	mustPanic(t, "needs New and Linearize", func() {
		Register(Entry{Family: fakeFamily, Possibly: stubBatch, Definitely: stubBatch, Caps: Caps{Incremental: true}})
	})
	mustPanic(t, "both slice kernels", func() {
		Register(Entry{Family: fakeFamily, Possibly: stubBatch, Definitely: stubBatch, Caps: Caps{Sliceable: true}, SlicePossibly: stubBatch})
	})
	ok := Entry{Family: fakeFamily, Possibly: stubBatch, Definitely: stubBatch}
	Register(ok)
	mustPanic(t, "duplicate registration", func() { Register(ok) })
}
