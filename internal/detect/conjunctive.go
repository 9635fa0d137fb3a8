package detect

import (
	"fmt"
	"sort"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/conjunctive"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/vclock"
)

func init() {
	caps := Caps{Incremental: true, Sliceable: true, Payload: PayloadTruth}
	Register(Entry{
		Family: pred.Conjunctive, Modality: ModalityPossibly, Caps: caps,
		Batch: conjPossibly, New: newConjDetector, Linearize: linearizeConj,
		Slice: conjSlicePossibly,
	})
	caps.NeedsFullTrace = true
	Register(Entry{
		Family: pred.Conjunctive, Modality: ModalityDefinitely, Caps: caps,
		Batch: conjDefinitely, New: newConjDetector, Linearize: linearizeConj,
		Slice: conjSliceDefinitely,
	})
}

// varTruth is the batch truth convention: the named variable, initial
// states included.
func varTruth(c *computation.Computation, name string) conjunctive.LocalPredicate {
	return func(e computation.Event) bool { return c.Var(name, e.ID) != 0 }
}

func allLocals(c *computation.Computation, name string) map[computation.ProcID]conjunctive.LocalPredicate {
	locals := make(map[computation.ProcID]conjunctive.LocalPredicate, c.NumProcs())
	truth := varTruth(c, name)
	for p := 0; p < c.NumProcs(); p++ {
		locals[computation.ProcID(p)] = truth
	}
	return locals
}

// conjPossibly and conjDefinitely ignore Options.Parallelism: the
// token-elimination algorithms are linear in the number of events and
// already work-optimal, so a worker pool would only add coordination
// overhead without changing the asymptotics.
func conjPossibly(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	res := conjunctive.DetectTraced(c, allLocals(c, s.Var), tr)
	return Result{Holds: res.Found, Witness: res.Cut}, nil
}

func conjDefinitely(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	return Result{Holds: conjunctive.DetectDefinitelyTraced(c, allLocals(c, s.Var), tr)}, nil
}

// conjDetector wraps the token-based online checker (conjunctive.Checker)
// behind the Detector interface, batching true events per process so one
// Flush runs one elimination sweep however many events arrived.
type conjDetector struct {
	involved []int
	varName  string
	checker  *conjunctive.Checker
	pending  map[int][]vclock.VC // per-process true events awaiting a batch
	possibly bool
}

// newConjDetector is the one place every route to a conjunctive
// detector crosses (session open, mux register, replay, the in-process
// monitor), so the involved set is checked here: the checker allocates
// a queue per entry, and a duplicate's or stranger's queue is never fed
// — the conjunction would silently never latch.
func newConjDetector(s pred.Spec, cfg Config) (Detector, error) {
	involved := cfg.Involved
	if len(involved) == 0 {
		involved = make([]int, cfg.Procs)
		for i := range involved {
			involved[i] = i
		}
	} else {
		seen := make([]bool, cfg.Procs)
		for _, p := range involved {
			if p < 0 || p >= cfg.Procs {
				return nil, fmt.Errorf("detect: involved process %d out of range [0,%d)", p, cfg.Procs)
			}
			if seen[p] {
				return nil, fmt.Errorf("detect: involved process %d listed twice", p)
			}
			seen[p] = true
		}
	}
	return &conjDetector{
		involved: involved,
		varName:  s.Var,
		checker:  conjunctive.NewChecker(involved),
		pending:  make(map[int][]vclock.VC),
	}, nil
}

func (d *conjDetector) Step(ev Event) error {
	if ev.Truth {
		d.pending[ev.Proc] = append(d.pending[ev.Proc], vclock.VC(ev.VC))
	}
	return nil
}

func (d *conjDetector) Flush() bool {
	// Feed the checker in process order: ObserveBatch moves the token
	// protocol, and the elimination trace (and its work counters) must
	// not depend on map iteration order.
	procs := make([]int, 0, len(d.pending))
	for p := range d.pending {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		if vcs := d.pending[p]; len(vcs) > 0 {
			d.checker.ObserveBatch(p, vcs)
		}
		delete(d.pending, p)
	}
	d.possibly = d.checker.Found()
	return d.possibly
}

func (d *conjDetector) Possibly() bool { return d.possibly }

// Witness returns copies of the detected true events' timestamps, one
// per involved process in Config.Involved order, or nil before the
// verdict latches.
func (d *conjDetector) Witness() []vclock.VC { return d.checker.Witness() }

// Touches bounds the detector's relevance set: only true events of the
// involved processes can move the token checker, and only the spec's
// variable carries them.
func (d *conjDetector) Touches() Relevance {
	return Relevance{Procs: append([]int(nil), d.involved...), Vars: []string{d.varName}}
}

func (d *conjDetector) Window() int {
	n := d.checker.Pending()
	for _, vcs := range d.pending {
		n += len(vcs)
	}
	return n
}

func (d *conjDetector) Snapshot() Snapshot {
	return Snapshot{Possibly: d.possibly, Window: d.Window()}
}

// FinalizeDefinitely decides Definitely over the complete computation.
// Truth follows the online convention — initial states are false — so
// the verdict matches what the checker saw, for both a transport's
// rebuilt trace and a replayed offline computation.
func (d *conjDetector) FinalizeDefinitely(c *computation.Computation, tr *obs.Trace) (bool, error) {
	locals := make(map[computation.ProcID]conjunctive.LocalPredicate, len(d.involved))
	truth := truthFn(c, d.varName)
	for _, p := range d.involved {
		locals[computation.ProcID(p)] = truth
	}
	return conjunctive.DetectDefinitelyTraced(c, locals, tr), nil
}

// linearizeConj replays the 0/1 variable as Truth flags. The online
// checker has no notion of initial states (they are taken as false), so
// a computation whose variable starts true on some process cannot be
// replayed faithfully and is rejected.
func linearizeConj(c *computation.Computation, s pred.Spec) ([]Event, Config, error) {
	for p := 0; p < c.NumProcs(); p++ {
		if c.Var(s.Var, c.Initial(computation.ProcID(p)).ID) != 0 {
			return nil, Config{}, fmt.Errorf(
				"detect: replay of %v requires initial states to be false, but %s starts true on process %d",
				s, s.Var, p)
		}
	}
	events := LinearizeEvents(c, func(e computation.Event, ev *Event) {
		ev.Truth = c.Var(s.Var, e.ID) != 0
	})
	return events, Config{Procs: c.NumProcs()}, nil
}
