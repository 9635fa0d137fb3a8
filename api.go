package gpd

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"

	"github.com/distributed-predicates/gpd/internal/detect"
	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/pred"
	"github.com/distributed-predicates/gpd/internal/slicing"
)

// Spec is a predicate specification: one family plus its parameters. Build
// one with ParseSpec, from JSON, or as a literal; Detect validates it
// against the computation. The same type backs the gpddetect command line
// and the streaming wire protocol, so a predicate string accepted anywhere
// in the repository parses here too.
type Spec = pred.Spec

// SpecFamily selects a predicate family.
type SpecFamily = pred.Family

// SpecLiteral is one (possibly negated) per-process literal of a CNF
// clause.
type SpecLiteral = pred.Literal

// SpecClause is a disjunction of literals on distinct processes.
type SpecClause = pred.Clause

// Predicate families.
const (
	// FamilyConjunctive is all(var): the 0/1 variable true on every process.
	FamilyConjunctive = pred.Conjunctive
	// FamilySum is sum(var) relop k over the per-process variable sums.
	FamilySum = pred.Sum
	// FamilyCount is count(var) relop k on the number of true processes.
	FamilyCount = pred.Count
	// FamilyXor is xor(var): odd parity of the 0/1 variable.
	FamilyXor = pred.Xor
	// FamilyLevels is levels(var): m1, m2, ... — the general symmetric
	// predicate given by its true-count level set.
	FamilyLevels = pred.Levels
	// FamilyCNF is a singular CNF predicate over the 0/1 variable.
	FamilyCNF = pred.CNF
	// FamilyInFlight is inflight relop k on channel occupancy.
	FamilyInFlight = pred.InFlight
	// FamilyEquilevel is equilevel(var): L — the conjunction all(var)
	// restricted to the consistent cuts at level L (exactly L non-initial
	// events executed), per Garg & Streit.
	FamilyEquilevel = pred.Equilevel
)

// ParseSpec parses the predicate grammar shared by every surface:
//
//	all(<var>)                  conjunction over all processes
//	sum(<var>) <relop> <k>      relational sum predicate
//	count(<var>) <relop> <k>    symmetric predicate on the true-count
//	xor(<var>)                  exclusive-or (odd parity)
//	levels(<var>): m1, m2, ...  symmetric predicate by level set
//	inflight <relop> <k>        messages in flight
//	cnf(<var>): (0 | !1) & (2)  singular CNF; literals are process ids
//	equilevel(<var>): <L>       all(var) restricted to cuts at level L
func ParseSpec(text string) (Spec, error) { return pred.Parse(text) }

// Modality selects between the weak and strong interpretation of a
// predicate over a computation. It is the detector kernel's modality
// type (internal/detect), shared with the streaming stack.
type Modality = detect.Modality

const (
	// ModalityPossibly asks whether SOME consistent cut satisfies the
	// predicate (the default).
	ModalityPossibly = detect.ModalityPossibly
	// ModalityDefinitely asks whether EVERY run passes through a
	// satisfying cut.
	ModalityDefinitely = detect.ModalityDefinitely
)

// ParseModality parses "possibly" or "definitely".
func ParseModality(s string) (Modality, error) {
	m, err := detect.ParseModality(s)
	if err != nil {
		return 0, fmt.Errorf("gpd: unknown modality %q", s)
	}
	return m, nil
}

// DetectStrategy selects how Detect computes its answer.
type DetectStrategy = detect.Strategy

const (
	// StrategyBatch runs the family's offline algorithm on the sealed
	// computation (the default).
	StrategyBatch = detect.StrategyBatch
	// StrategyReplay drives the family's incremental detector over a
	// causal linearization of the computation — the same state machine
	// the streaming server runs — and, under ModalityDefinitely, closes
	// the way a retaining session does: the detector's endpoints, then
	// the batch kernel on the rebuilt trace for what they leave open.
	// Available only for incremental-capable families; cross-checkable
	// against StrategyBatch. Replay runs do not construct witness cuts.
	StrategyReplay = detect.StrategyReplay
	// StrategySlice computes the predicate's slice first — the exact
	// sublattice of satisfying cuts a regular predicate induces (Mittal
	// & Garg, "Computation slicing") — and decides from it, delegating
	// to the family's batch kernel only when the slice alone cannot
	// answer. Available for the regular families (all(var), and
	// inflight == 0); other specs fail with an error matching
	// ErrNotRegular instead of silently degrading.
	StrategySlice = detect.StrategySlice
)

// ErrNotRegular reports a predicate whose satisfying cuts are not
// closed under lattice meet and join — the precondition for computation
// slicing. Detect under WithStrategy(StrategySlice) returns errors
// matching it (via errors.Is) for non-regular specs; the error message
// names the rejected family or fragment.
var ErrNotRegular = slicing.ErrNotRegular

// Trace collects per-run observability data: timed spans and named work
// counters. All methods are safe on a nil *Trace (no-ops), so detectors
// are unconditionally instrumented. Pass one to Detect with WithTrace to
// share it across runs; otherwise Detect creates a private trace and
// returns its report.
type Trace = obs.Trace

// Work is the rendered observability report of a detection run: spans,
// work counters and notes. Its String method prints a human-readable
// summary (the gpddetect -report output).
type Work = obs.Report

// NewTrace returns an empty trace.
func NewTrace() *Trace { return obs.NewTrace() }

// Option configures Detect.
type Option func(*detectOptions)

type detectOptions struct {
	modality    Modality
	route       DetectStrategy
	strategy    SingularStrategy
	strategySet bool
	parallelism int
	trace       *obs.Trace
}

// WithModality selects the modality; the default is ModalityPossibly.
func WithModality(m Modality) Option {
	return func(o *detectOptions) { o.modality = m }
}

// Strategy is the type set of the WithStrategy option: either a
// detection route (StrategyBatch, StrategyReplay — how Detect computes
// its answer) or a singular algorithm (StrategyAuto, StrategyChainCover,
// ... — which algorithm decides a cnf predicate). The two namespaces
// share one option, disambiguated by type at compile time.
type Strategy interface {
	DetectStrategy | SingularStrategy
}

// WithStrategy selects a strategy from either namespace:
//
//   - a DetectStrategy picks the detection route; the default is
//     StrategyBatch.
//   - a SingularStrategy picks the singular detection algorithm. It
//     applies only to FamilyCNF specs under ModalityPossibly; Detect
//     rejects any other combination instead of silently ignoring the
//     option.
func WithStrategy[S Strategy](s S) Option {
	return func(o *detectOptions) {
		switch v := any(s).(type) {
		case DetectStrategy:
			o.route = v
		case SingularStrategy:
			o.strategy = v
			o.strategySet = true
		}
	}
}

// WithParallelism bounds the worker pool behind the batch kernels: the
// lattice level sweeps, the max-flow phases of the sum closures, the
// chain-cover scans and the CPDHB selection blocks all draw from n
// workers. The default 0 resolves to GOMAXPROCS; 1 runs the exact
// sequential algorithms. Verdicts, witnesses and work counters are
// bit-identical for every worker count — the option trades wall-clock
// time only. Detect rejects negative values.
func WithParallelism(n int) Option {
	return func(o *detectOptions) { o.parallelism = n }
}

// WithTrace routes the run's spans and work counters into the given
// trace, accumulating across calls. The final Report.Work still reflects
// everything the trace has seen.
func WithTrace(tr *Trace) Option {
	return func(o *detectOptions) { o.trace = tr }
}

// Report is the outcome of Detect.
type Report struct {
	// Spec is the predicate that was decided.
	Spec Spec
	// Modality is the modality that was decided.
	Modality Modality
	// Holds is the verdict: Possibly(spec) or Definitely(spec).
	Holds bool
	// Witness, when non-nil, is a consistent cut satisfying the
	// predicate. Produced only under ModalityPossibly with
	// StrategyBatch (by the families whose detectors construct cuts:
	// all, sum ==, count, xor, levels, inflight ==, cnf, equilevel) or
	// StrategySlice (the slice bottom, the same least satisfying cut
	// the batch route constructs).
	Witness Cut
	// Strategy is the singular algorithm that produced the answer
	// (FamilyCNF under ModalityPossibly only).
	Strategy SingularStrategy
	// Combinations counts the CPDHB sub-runs tried (FamilyCNF under
	// ModalityPossibly only).
	Combinations int
	// Min and Max are the exact extrema of the tracked quantity (the
	// variable sum, the true-count, the channel occupancy) over all
	// consistent cuts when HasRange is set: every ModalityPossibly run
	// of sum, count, xor, levels and inflight, and their
	// ModalityDefinitely runs under StrategyReplay (inflight also under
	// StrategyBatch).
	Min, Max int64
	// HasRange reports whether Min and Max are meaningful.
	HasRange bool
	// Work reports the spans and work counters of this run (or of the
	// caller's accumulated trace when WithTrace was used).
	Work Work
}

// Detect is the single front door for offline predicate detection: it
// decides spec under the chosen modality on the sealed computation,
// resolving through the detector registry (internal/detect) to the
// cheapest applicable algorithm — CPDHB for conjunctions, max-weight
// closures for sums and channel occupancy, the sum decomposition for
// symmetric predicates, the singular algorithms for CNF — and falling
// back to lattice reachability where only the exponential route is known
// (the Definitely side of sum, symmetric and CNF; see the package
// comment). WithStrategy(StrategyReplay) instead drives the
// family's incremental detector — the state machine the streaming server
// runs — over a causal linearization of the computation, cross-checkable
// against the batch verdict.
//
// The zero options decide Possibly with StrategyBatch. Errors come from
// a nil or unsealed computation, spec validation (including against the
// computation's process count), option conflicts, and detector
// preconditions such as ErrNotUnitStep and ErrStepTooLarge.
func Detect(c *Computation, s Spec, opts ...Option) (Report, error) {
	o := detectOptions{modality: ModalityPossibly, route: StrategyBatch, strategy: StrategyAuto}
	for _, opt := range opts {
		opt(&o)
	}
	switch o.modality {
	case ModalityPossibly, ModalityDefinitely:
	default:
		return Report{}, fmt.Errorf("gpd: unknown modality %v", o.modality)
	}
	switch o.route {
	case StrategyBatch, StrategyReplay, StrategySlice:
	default:
		return Report{}, fmt.Errorf("gpd: unknown detect strategy %v", o.route)
	}
	if o.parallelism < 0 {
		return Report{}, fmt.Errorf("gpd: parallelism %d is negative; use 0 for GOMAXPROCS", o.parallelism)
	}
	if o.strategySet {
		if s.Family != FamilyCNF {
			return Report{}, fmt.Errorf("gpd: strategy %v applies only to cnf predicates, not %v", o.strategy, s.Family)
		}
		if o.modality != ModalityPossibly {
			return Report{}, fmt.Errorf("gpd: strategy %v applies only under possibly; definitely uses lattice reachability", o.strategy)
		}
	}
	// The precondition of every route lives here, once: some kernels
	// would panic on an order query before Seal while others seal a
	// private clone and answer, so the verdict would depend on the family.
	if c == nil || !c.Sealed() {
		return Report{}, errors.New("gpd: Detect needs a sealed computation; call Seal first")
	}
	if err := s.Validate(c.NumProcs()); err != nil {
		return Report{}, err
	}
	tr := o.trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	rep := Report{Spec: s, Modality: o.modality}
	done := tr.Span("detect:" + s.Family.String())
	var res detect.Result
	var err error
	// The kernel runs under a pprof family label, so a CPU profile of a
	// mixed batch workload attributes its samples per predicate family
	// (the stream engine adds tenant/shard labels on its own entry
	// points). Label swap cost is nanoseconds against kernel runtimes.
	pprof.Do(context.Background(), pprof.Labels("family", s.Family.String()), func(context.Context) {
		switch o.route {
		case StrategyReplay:
			res, err = detect.Replay(c, s, o.modality, tr)
		case StrategySlice:
			res, err = detect.Slice(c, s, o.modality, detect.Options{Parallelism: o.parallelism}, tr)
		default:
			res, err = detect.Batch(c, s, o.modality, detect.Options{Singular: o.strategy, Parallelism: o.parallelism}, tr)
		}
	})
	done()
	if err != nil {
		return Report{}, err
	}
	rep.Holds, rep.Witness = res.Holds, res.Witness
	rep.Strategy, rep.Combinations = res.Strategy, res.Combinations
	rep.Min, rep.Max, rep.HasRange = res.Min, res.Max, res.HasRange
	rep.Work = tr.Report()
	return rep, nil
}
