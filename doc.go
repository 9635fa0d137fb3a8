// Package gpd detects global predicates in distributed computations.
//
// It is a faithful, production-oriented implementation of Mittal & Garg,
// "On Detecting Global Predicates in Distributed Computations" (ICDCS
// 2001), together with every substrate the paper builds on: the
// happened-before computation model with vector clocks and consistent
// cuts, the Cooper–Marzullo global-state lattice, Garg–Waldecker
// conjunctive predicate detection (offline and online), max-flow based
// relational predicate evaluation, minimum chain covers, and the paper's
// NP-hardness constructions with an accompanying SAT and subset-sum
// toolbox.
//
// # The problem
//
// An asynchronous distributed execution only determines a partial order on
// events, so the system passes through one of exponentially many possible
// global states. Possibly(phi) asks whether SOME consistent global state
// (cut) satisfies phi — the right question when hunting violations such as
// "two processes in the critical section". Definitely(phi) asks whether
// EVERY execution consistent with the observation passes through phi.
//
// # The front door
//
// Detect is the single entry point for offline detection: parse (or
// build) a Spec, pick a Modality, and let dispatch choose the detector:
//
//	spec, err := gpd.ParseSpec("sum(tokens) == 2")
//	if err != nil { ... }
//	rep, err := gpd.Detect(c, spec, gpd.WithModality(gpd.ModalityPossibly))
//	if err != nil { ... }
//	fmt.Println(rep.Holds, rep.Witness)
//	fmt.Print(rep.Work) // per-phase work counters and timed spans
//
// The same Spec type and grammar back the gpddetect command line and the
// streaming wire protocol, so a predicate accepted by one surface is
// accepted by all of them.
//
// # Migration note
//
// The per-family entry points that predate Detect — PossiblyConjunctive,
// DefinitelyConjunctive, PossiblySingular, DefinitelySingular,
// PossiblySum, PossiblySumWitness, DefinitelySum, PossiblyWeighted,
// DefinitelyWeighted, PossiblyInFlight, PossiblySymmetric,
// DefinitelySymmetric and friends — remain supported as thin wrappers
// over the same internal detectors and are not going away. New code
// should prefer Detect: it validates the spec against the computation,
// rejects option combinations the legacy surfaces used to ignore
// silently, and returns a Report carrying the work accounting (Work) of
// the run. Reach for the legacy functions when the predicate does not fit
// the Spec grammar: arbitrary LocalPredicate maps, custom EventWeight
// functions, SymmetricSpec builders, or programmatic SingularPredicate
// values.
//
// # What this library provides
//
//   - Building and (de)serializing computations: New, ReadTrace, WriteTrace.
//   - Conjunctive predicates (one local predicate per process):
//     PossiblyConjunctive, and the online Monitor for live systems (an
//     in-process adapter over the same conjunctive detector the
//     streaming server runs).
//   - Singular k-CNF predicates (Sections 3.1–3.3 of the paper):
//     PossiblySingular with the polynomial receive-/send-ordered
//     algorithms and the general-case process-subset and chain-cover
//     algorithms. Detection is NP-complete in general (Theorem 1); the
//     hardness construction itself ships in the reduction toolbox used by
//     cmd/gpdreduce.
//   - Relational sums x1+...+xn relop k (Section 4): SumRange,
//     PossiblySum, PossiblySumWitness, DefinitelySum. Possibly(S = k) is
//     polynomial for unit-step variables and NP-complete otherwise
//     (Theorem 3).
//   - Symmetric boolean predicates (Section 4.3): PossiblySymmetric with
//     builders Xor, NoSimpleMajority, ExactlyK, NotAllEqual, ...
//   - Exhaustive oracles PossiblyGeneric and DefinitelyGeneric for
//     arbitrary predicates (exponential; useful for testing and small
//     computations).
//   - A deterministic message-passing simulator (NewSimulator and the
//     protocol constructors) to generate realistic traces.
//
// See the examples directory for runnable walkthroughs and EXPERIMENTS.md
// for the reproduction of the paper's claims.
package gpd
