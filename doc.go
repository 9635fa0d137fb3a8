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
// Options select the rest: WithModality(ModalityDefinitely) for the strong
// modality; WithStrategy(StrategyReplay) to drive the streaming state
// machine over the trace instead of the batch algorithm, or
// WithStrategy(StrategySlice) to decide through the predicate's slice;
// WithStrategy(StrategyChainCover) etc. to pin a singular algorithm;
// WithParallelism for the worker pool; WithTrace to accumulate work
// across runs. The Report carries the verdict, a witness cut where the
// detector constructs one, the exact [Min, Max] of the tracked quantity
// for the sum, count, xor, levels and inflight families, and the run's
// work counters. Detect rejects a nil or unsealed computation, option
// combinations that would be silently ignored, and specs that do not fit
// the computation.
//
// # What this library provides
//
//   - Building and (de)serializing computations: New, ReadTrace, WriteTrace.
//   - Conjunctive predicates, all(var): Garg–Waldecker CPDHB offline, and
//     the online Monitor for live systems (an in-process adapter over the
//     same conjunctive detector the streaming server runs).
//   - Singular k-CNF predicates, cnf(var): (0 | !1) & (2) (Sections 3.1–3.3
//     of the paper): the polynomial receive-/send-ordered algorithms and the
//     general-case process-subset and chain-cover algorithms. Detection is
//     NP-complete in general (Theorem 1); the hardness construction itself
//     ships in the reduction toolbox used by cmd/gpdreduce.
//   - Relational sums sum(var) relop k (Section 4): Possibly(S = k) is
//     polynomial for unit-step variables (ValidateUnitStep) and
//     NP-complete otherwise (Theorem 3); inflight relop k is the same
//     machinery on channel occupancy.
//   - Symmetric boolean predicates (Section 4.3): count(var) relop k,
//     xor(var) and levels(var): m1, m2, ..., with the level-set builders
//     Xor, NoSimpleMajority, ExactlyK, NotAllEqual, ... for
//     Spec{Family: FamilyLevels, Levels: builder(n).Levels}.
//   - Exhaustive oracles PossiblyGeneric and DefinitelyGeneric for
//     arbitrary predicates (exponential; useful for testing and small
//     computations).
//   - A deterministic message-passing simulator (NewSimulator and the
//     protocol constructors) to generate realistic traces.
//
// See the examples directory for runnable walkthroughs and EXPERIMENTS.md
// for the reproduction of the paper's claims.
package gpd
