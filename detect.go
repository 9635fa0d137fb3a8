package gpd

import (
	"github.com/distributed-predicates/gpd/internal/core/relsum"
	"github.com/distributed-predicates/gpd/internal/core/singular"
	"github.com/distributed-predicates/gpd/internal/core/symmetric"
)

// SingularStrategy selects the singular detection algorithm of a cnf
// predicate (the paper's central objects, Sections 3.1–3.3).
type SingularStrategy = singular.Strategy

// Singular detection strategies.
const (
	// StrategyAuto tries receive-ordered, then send-ordered, then chain
	// covers.
	StrategyAuto = singular.Auto
	// StrategyReceiveOrdered is the polynomial Section 3.2 algorithm;
	// it fails unless receives are totally ordered per meta-process.
	StrategyReceiveOrdered = singular.ReceiveOrdered
	// StrategySendOrdered is its time-reversed dual.
	StrategySendOrdered = singular.SendOrdered
	// StrategyProcessSubsets is general algorithm A (<= k^g CPDHB runs).
	StrategyProcessSubsets = singular.ProcessSubsets
	// StrategyChainCover is general algorithm B (<= c^g CPDHB runs).
	StrategyChainCover = singular.ChainCover
)

// Singular detection errors.
var (
	// ErrNotSingular reports a predicate sharing a process between
	// clauses.
	ErrNotSingular = singular.ErrNotSingular
	// ErrNotOrdered reports a computation outside the polynomial
	// special cases.
	ErrNotOrdered = singular.ErrNotOrdered
	// ErrNotUnitStep reports a variable changing by more than one per
	// event, outside the scope of the polynomial equality detectors.
	ErrNotUnitStep = relsum.ErrNotUnitStep
	// ErrStepTooLarge reports a variable changing at one event by more
	// than the closure kernels can represent (2^40); every sum route
	// refuses such a computation instead of answering from it.
	ErrStepTooLarge = relsum.ErrStepTooLarge
)

// Relop is a relational operator for sum predicates.
type Relop = relsum.Relop

// Relational operators.
const (
	Lt = relsum.Lt
	Le = relsum.Le
	Eq = relsum.Eq
	Ge = relsum.Ge
	Gt = relsum.Gt
	Ne = relsum.Ne
)

// ParseRelop parses "<", "<=", "==", ">=", ">", "!=".
func ParseRelop(s string) (Relop, error) { return relsum.ParseRelop(s) }

// ValidateUnitStep checks that the named variable changes by at most one
// at every event.
func ValidateUnitStep(c *Computation, name string) error {
	return relsum.ValidateUnitStep(c, name)
}

// SymmetricSpec is a symmetric predicate over per-process booleans,
// specified by the set of true-counts at which it holds.
type SymmetricSpec = symmetric.Spec

// Symmetric predicate builders (Section 4.3 of the paper).
var (
	// SymmetricFromFunc builds a spec from a predicate on the true-count.
	SymmetricFromFunc = symmetric.FromFunc
	// Xor is the exclusive-or of the local predicates (odd parity).
	Xor = symmetric.Xor
	// Parity selects odd or even parity.
	Parity = symmetric.Parity
	// NoSimpleMajority holds when neither side has a strict majority.
	NoSimpleMajority = symmetric.NoSimpleMajority
	// NoTwoThirdsMajority holds when neither side reaches two thirds.
	NoTwoThirdsMajority = symmetric.NoTwoThirdsMajority
	// ExactlyK holds when exactly k variables are true.
	ExactlyK = symmetric.ExactlyK
	// NotAllEqual holds unless all variables agree.
	NotAllEqual = symmetric.NotAllEqual
)
