// rc11lib/explore/explorer.hpp
//
// Explicit-state exploration of the combined transition relation.  This is
// the engine behind the substitution documented in DESIGN.md: the paper
// discharges its lemmas symbolically in Isabelle/HOL; we decide the same
// questions on finite instantiations by enumerating every reachable
// configuration of the operational semantics.
//
// The enumeration itself lives in the shared engine layer — see
// engine/reach.hpp (generic reachability driver, one worker pool for every
// thread count) and engine/transition_system.hpp (successor generation +
// independence metadata + ample-set POR).  This header re-exports the
// driver types under their historic explore:: names and adds the explorer
// proper: invariant evaluation, final-configuration collection and witness
// construction.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/reach.hpp"
#include "lang/config.hpp"
#include "witness/witness.hpp"

namespace rc11::explore {

using lang::Config;
using lang::Step;
using lang::System;
using lang::ThreadId;

// Driver vocabulary, re-exported from the engine layer (the definitions
// moved there when og::check_outline and refinement::build_graph were ported
// onto the same driver).
using engine::ExploreStats;
using engine::ReachOptions;
using engine::ReachResult;
using engine::SampleOptions;
using engine::SearchStrategy;
using engine::ShardedVisitedSet;
using engine::StateVisitor;
using engine::Strategy;
using engine::visit_reachable;

/// The explorer's options.  The engine::RunControl base holds the run's
/// reductions, limits and controls (engine/reach.hpp); of the reductions,
/// all are honoured:
///   * por — per-state invariants are evaluated on the reduced state set:
///     violations found are real, and violations at final/blocked states are
///     never missed, but a violation confined to a pruned intermediate
///     interleaving may be (the PorCrosscheck test checks exact agreement on
///     the corpus — see docs/SEMANTICS.md §9).  Witnesses from reduced runs
///     replay through the full semantics.
///   * symmetry — exact for verdicts, outcomes, finals and invariant
///     violations: the explorer orbit-closes final configurations and
///     evaluates the invariant at every orbit member of each visited
///     representative.  Violation *traces* lead to the visited
///     representative (a real execution; a violation at a permuted
///     configuration is flagged in the trace).
///   * rf_quotient — exact for verdicts, outcome sets (final register
///     values) and race sets; the *concrete* final_configs list holds one
///     class representative per merged class, so callers comparing runs must
///     compare outcomes, not raw final encodings.  Invariants are evaluated
///     on class representatives: pass the invariant's view footprint in
///     rf_pins (assertions::Assertion::footprint()), and reject
///     footprint-less predicates before setting this.
///   * mode == Strategy::Sample — runs `sample.episodes` seeded random
///     schedules instead of enumerating and reports StopReason::EpisodeCap
///     unless something stopped it earlier: violations and finals are the
///     ones the episodes covered (a lower bound).
/// Final configs and violations are sorted canonically before returning,
/// so they compare equal across thread counts; the invariant callback must
/// be thread-safe when more than one worker resolves.
struct ExploreOptions : engine::RunControl {
  SearchStrategy strategy = SearchStrategy::Dfs;
  /// Viewfront entries to pin into the rf-quotient key (see above); ignored
  /// unless rf_quotient.
  engine::RfPins rf_pins;
  /// Stop at the first invariant violation (otherwise keep counting).
  bool stop_on_violation = true;
  /// Record parent links and step labels so violations come with a full
  /// counterexample trace and a structured replayable witness (costs memory;
  /// default off for benchmarks).  Works for any num_threads.
  bool track_traces = false;
  /// Keep a copy of every final configuration (needed for outcome sets).
  bool collect_finals = true;
};

/// An invariant violation with an optional counterexample trace.
struct Violation {
  std::string what;              ///< description from the invariant callback
  std::string state_dump;        ///< pretty-printed violating configuration
  std::vector<std::string> trace;  ///< step labels from the initial state
  /// Structured, replayable counterexample, present when the run kept a
  /// trace sink (track_traces or checkpoint_path): serialise with
  /// witness::to_json, validate with witness::replay.
  std::optional<witness::Witness> witness;
};

struct ExploreResult {
  ExploreStats stats;
  /// Deduplicated (iff collect_finals) and sorted by canonical encoding, so
  /// results compare equal across search strategies and thread counts.
  std::vector<Config> final_configs;
  /// Sorted by (what, state_dump); identical modulo traces for any thread
  /// count when stop_on_violation is off.
  std::vector<Violation> violations;
  /// Why the run ended; anything but Complete means partial results (a
  /// stop_on_violation stop is Complete — stopping was the caller's choice).
  engine::StopReason stop = engine::StopReason::Complete;
  bool truncated = false;  ///< stop != Complete: results are a lower bound

  [[nodiscard]] bool ok() const { return violations.empty() && !truncated; }
};

/// Invariant callback: return a description to report a violation at this
/// reachable configuration, or std::nullopt if the configuration is fine.
/// Must be thread-safe when num_threads resolves to > 1.
using Invariant =
    std::function<std::optional<std::string>(const System&, const Config&)>;

/// Explores all configurations reachable from the initial configuration.
/// `invariant` (if given) is evaluated at every reachable configuration.
[[nodiscard]] ExploreResult explore(const System& sys,
                                    const ExploreOptions& options = {},
                                    const Invariant& invariant = {});

/// Convenience: the set of final values of selected registers, as tuples in
/// the order given.  This is how litmus outcomes ("r1 = 1, r2 = 0 allowed?")
/// are extracted.
[[nodiscard]] std::vector<std::vector<lang::Value>> final_register_values(
    const System& sys, const ExploreResult& result,
    const std::vector<lang::Reg>& regs);

/// True iff some final configuration assigns exactly `values` to `regs`.
[[nodiscard]] bool outcome_reachable(const System& sys,
                                     const ExploreResult& result,
                                     const std::vector<lang::Reg>& regs,
                                     const std::vector<lang::Value>& values);

}  // namespace rc11::explore
