package detect

import (
	"errors"
	"fmt"

	"github.com/distributed-predicates/gpd/internal/computation"
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/par"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// Slice decides the predicate through its computation slice: build the
// slice — the exact sublattice of satisfying cuts a regular predicate
// induces — and answer from it, delegating to the family's batch kernel
// only when the slice alone cannot. Families without a slice route
// (non-regular families) fail with an error wrapping
// slicing.ErrNotRegular, the explicit fallback the registry's
// capability flags promise instead of a silent degrade.
func Slice(c *computation.Computation, s pred.Spec, m Modality, opt Options, tr *obs.Trace) (Result, error) {
	e, ok := Lookup(s.Family, m)
	if !ok {
		return Result{}, fmt.Errorf("detect: no detector registered for %v under %v", s.Family, m)
	}
	if !e.Caps.Sliceable {
		return Result{}, fmt.Errorf("detect: no slice route for %v under %v: %w",
			s.Family, m, &slicing.NotRegularError{Detail: fmt.Sprintf("family %v is not regular", s.Family)})
	}
	done := tr.Span("slice:" + s.Family.String())
	defer done()
	opt.Parallelism = par.Limit(opt.Parallelism)
	return e.Slice(c, s, opt, tr)
}

// conjSliceOracle adapts the batch truth convention (the named 0/1
// variable, initial states included) on every process for the slicing
// constructor — the same locals the CPDHB batch kernel runs on, so the
// two routes see the same predicate.
func conjSliceOracle(c *computation.Computation, s pred.Spec) slicing.Oracle {
	truth := varTruth(c, s.Var)
	locals := make(map[computation.ProcID]func(computation.Event) bool, c.NumProcs())
	for p := 0; p < c.NumProcs(); p++ {
		locals[computation.ProcID(p)] = truth
	}
	return slicing.ConjunctiveOracle(locals)
}

// conjSlicePossibly: a conjunctive predicate is Possibly true iff its
// slice is non-empty, and the slice bottom is the least satisfying cut
// — the same cut the CPDHB elimination constructs, so the witness is
// bit-identical to the batch route's.
func conjSlicePossibly(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	sl, err := slicing.Compute(c, conjSliceOracle(c, s))
	if errors.Is(err, slicing.ErrEmpty) {
		tr.Add("slice.empty", 1)
		return Result{}, nil
	}
	if err != nil {
		return Result{}, err
	}
	tr.Add("slice.built", 1)
	return Result{Holds: true, Witness: sl.Bottom()}, nil
}

// conjSliceDefinitely answers from the slice when it can: an empty
// slice means no satisfying cut at all (Definitely false); a bottom at
// the initial cut or a top at the final cut is a satisfying cut every
// run passes through (Definitely true). In between, slicing's level-set
// structure cannot characterise Definitely — the slice contains the
// satisfying cuts but says nothing about which antichains of unsatisfying
// cuts separate bottom from top — so the route delegates to the batch
// kernel for the exact verdict.
func conjSliceDefinitely(c *computation.Computation, s pred.Spec, opt Options, tr *obs.Trace) (Result, error) {
	sl, err := slicing.Compute(c, conjSliceOracle(c, s))
	if errors.Is(err, slicing.ErrEmpty) {
		tr.Add("slice.empty", 1)
		return Result{}, nil
	}
	if err != nil {
		return Result{}, err
	}
	if sl.Bottom().Equal(c.InitialCut()) || sl.Top().Equal(c.FinalCut()) {
		tr.Add("slice.early_exit", 1)
		return Result{Holds: true}, nil
	}
	tr.Add("slice.delegated", 1)
	return conjDefinitely(c, s, opt, tr)
}

// quiescentSliceGate admits the regular fragment of the inflight
// family: exactly inflight == 0 (channel quiescence). Occupancy at any
// other level is not meet- or join-closed — two cuts can each hold k
// messages in flight while their meet holds fewer — so those specs are
// rejected explicitly.
func quiescentSliceGate(s pred.Spec) error {
	if s.Rel != relsum.Eq || s.K != 0 {
		return fmt.Errorf("detect: no slice route for %v: %w", s,
			&slicing.NotRegularError{Detail: fmt.Sprintf("inflight %v %d is not regular; only inflight == 0 (quiescence) is", s.Rel, s.K)})
	}
	return nil
}

// inflightSlicePossibly: the initial cut is always quiescent, so the
// quiescence slice is never empty and its bottom is the initial cut —
// the same witness the batch scan returns at k = 0.
func inflightSlicePossibly(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	if err := quiescentSliceGate(s); err != nil {
		return Result{}, err
	}
	sl, err := slicing.Compute(c, slicing.QuiescentOracle(c))
	if err != nil {
		return Result{}, err
	}
	tr.Add("slice.built", 1)
	return Result{Holds: true, Witness: sl.Bottom()}, nil
}

// inflightSliceDefinitely: the quiescence slice bottoms at the initial
// cut, which every run passes through, so Definitely(inflight == 0)
// holds unconditionally — the slice decides it with no delegation.
func inflightSliceDefinitely(c *computation.Computation, s pred.Spec, _ Options, tr *obs.Trace) (Result, error) {
	if err := quiescentSliceGate(s); err != nil {
		return Result{}, err
	}
	sl, err := slicing.Compute(c, slicing.QuiescentOracle(c))
	if err != nil {
		return Result{}, err
	}
	if !sl.Bottom().Equal(c.InitialCut()) {
		return Result{}, fmt.Errorf("detect: quiescence slice bottom %v is not the initial cut", sl.Bottom())
	}
	tr.Add("slice.early_exit", 1)
	return Result{Holds: true}, nil
}
