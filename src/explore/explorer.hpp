// rc11lib/explore/explorer.hpp
//
// Explicit-state exploration of the combined transition relation.  This is
// the engine behind the substitution documented in DESIGN.md: the paper
// discharges its lemmas symbolically in Isabelle/HOL; we decide the same
// questions on finite instantiations by enumerating every reachable
// configuration of the operational semantics.
//
// The enumeration itself lives in the shared engine layer — see
// engine/reach.hpp (generic reachability driver, sequential and parallel)
// and engine/transition_system.hpp (successor generation + independence
// metadata + ample-set POR).  This header re-exports the driver types under
// their historic explore:: names and adds the explorer proper: invariant
// evaluation, final-configuration collection and witness construction.

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

struct ExploreOptions {
  /// Hard cap on distinct states; exploration reports truncation beyond it.
  std::uint64_t max_states = 1'000'000;
  SearchStrategy strategy = SearchStrategy::Dfs;
  /// Worker threads expanding configurations: 1 (the default) runs the exact
  /// sequential search — required for BFS shortest-trace guarantees and kept
  /// as the default for Owicki–Gries outline checking; 0 resolves to
  /// std::thread::hardware_concurrency(); N > 1 runs a shared-frontier pool
  /// over a lock-striped visited set (engine/sharded_visited.hpp).  For
  /// every thread count the *set* of visited states, final configurations,
  /// outcomes and the presence of violations are identical (final configs
  /// and violations are sorted canonically before returning); only per-run
  /// orderings — which violation is reported first under stop_on_violation,
  /// which states fall inside a max_states truncation — may differ.  The
  /// invariant callback must be thread-safe when more than one worker
  /// resolves.  track_traces composes with every thread count: parent links
  /// are recorded per interned state under the visited-set shard lock, so a
  /// parallel run's trace may differ from a sequential run's but is always a
  /// real execution (and always replays — see witness::replay).
  unsigned num_threads = 1;
  /// Sound reduction for outcome-set exploration: when some thread's next
  /// instruction is *local* (Assign / Branch / Jump — deterministic, no
  /// memory effect), expand only that thread.  Local steps commute with all
  /// other transitions and can never be disabled, so reachable final states
  /// and memory behaviours are preserved while intermediate interleavings of
  /// program counters are pruned.  Leave off when checking proof outlines
  /// (annotations quantify over the *full* interleaving set).
  bool fuse_local_steps = false;
  /// Ample-set partial-order reduction in the shared driver (subsumes
  /// fuse_local_steps; adds the cycle proviso and private relaxed accesses —
  /// see engine/transition_system.hpp).  Sound for final-register values,
  /// reachable outcomes, deadlocks and the final/blocked state sets; the
  /// reduced graph is identical for every num_threads, and witnesses from
  /// reduced runs replay through the full semantics.  Per-state invariants
  /// are evaluated on the reduced state set: violations found are real, and
  /// violations occurring at final/blocked states are never missed, but a
  /// violation confined to a pruned intermediate interleaving may be (the
  /// PorCrosscheck test checks exact agreement on the corpus — see
  /// docs/SEMANTICS.md §9).  Default off.
  bool por = false;
  /// Thread-symmetry reduction (engine/symmetry.hpp): quotient the visited
  /// set by thread permutations of provably interchangeable threads
  /// (identical program text modulo thread id) and layer sleep-set
  /// transition pruning on top.  Exact for verdicts, outcomes, finals and
  /// invariant violations: the explorer orbit-closes final configurations
  /// and evaluates the invariant at every orbit member of each visited
  /// representative, so nothing a full run reports is missed — violation
  /// *traces* lead to the visited representative (a real execution; a
  /// violation at a permuted configuration is flagged in the trace).  A
  /// sound no-op on programs with no interchangeable threads.  Composes
  /// with por, budgets, track_traces and checkpoint/resume (the checkpoint
  /// records the setting; resume rejects a mismatch).  Rejected under
  /// Strategy::Sample.
  bool symmetry = false;
  /// Execution-graph quotient (engine/abstraction.hpp): deduplicate states
  /// by [pcs, registers, rf/mo projection] instead of the concrete encoding,
  /// folding interleavings that built the same execution graph.  Exact for
  /// verdicts, outcome sets (final register values) and race sets; the
  /// *concrete* final_configs list holds one class representative per merged
  /// class, so callers comparing runs must compare outcomes, not raw final
  /// encodings.  Invariants are evaluated on class representatives: pass
  /// the invariant's view footprint in rf_pins so the predicate is a
  /// function of the quotient key (assertions::Assertion::footprint()), and
  /// reject footprint-less predicates before setting this.  Composes with
  /// por, budgets, track_traces and checkpoint/resume (setting pinned in
  /// the checkpoint); rejected with --symmetry (v1), under Strategy::Sample
  /// and under the SC memory model.
  bool rf_quotient = false;
  /// Viewfront entries to pin into the rf-quotient key (see above); ignored
  /// unless rf_quotient.
  engine::RfPins rf_pins;
  /// Coverage mode (engine/sample.hpp): Exhaustive (default), Por — same
  /// setting as `por` above, either spelling works — or Sample, which runs
  /// `sample.episodes` seeded random schedules instead of enumerating and
  /// reports StopReason::EpisodeCap unless something stopped it earlier.
  /// Under Sample: checkpoint_path/resume are rejected loudly, violations
  /// and finals are the ones the episodes covered (a lower bound), and the
  /// exhaustive modes stay the oracle on small instances.
  Strategy mode = Strategy::Exhaustive;
  /// Tuning for mode == Strategy::Sample (episodes, seed, guided bias,
  /// episode step cap); ignored otherwise.
  SampleOptions sample;
  /// Stop at the first invariant violation (otherwise keep counting).
  bool stop_on_violation = true;
  /// Record parent links and step labels so violations come with a full
  /// counterexample trace and a structured replayable witness (costs memory;
  /// default off for benchmarks).  Works for any num_threads.
  bool track_traces = false;
  /// Keep a copy of every final configuration (needed for outcome sets).
  bool collect_finals = true;
  /// Memory budget for the visited set in bytes (0 = unlimited); exceeding
  /// it stops the run with StopReason::MemCap and valid partial results.
  std::uint64_t max_visited_bytes = 0;
  /// Wall-clock deadline in milliseconds (0 = none); expiry stops the run
  /// with StopReason::Deadline.
  std::uint64_t deadline_ms = 0;
  /// Cooperative cancellation token (see engine::CancelToken); polled once
  /// per claimed state.  Must outlive the call; null disables the check.
  const engine::CancelToken* cancel = nullptr;
  /// Deterministic fault injection (robustness tests; see engine::FaultPlan).
  engine::FaultPlan fault;
  /// Resume from a checkpoint of an earlier stopped run (must outlive the
  /// call; `por` must match the checkpoint's).  Verdicts, states,
  /// transitions, finals and blocked counts equal an uninterrupted run's.
  const engine::Checkpoint* resume = nullptr;
  /// When non-empty and the run stops early (any StopReason other than
  /// Complete), write a checkpoint file here.  Implies trace recording (the
  /// checkpoint is built from the trace sink), so violations carry witnesses
  /// as under track_traces.
  std::string checkpoint_path;
};

/// An invariant violation with an optional counterexample trace.
struct Violation {
  std::string what;              ///< description from the invariant callback
  std::string state_dump;        ///< pretty-printed violating configuration
  std::vector<std::string> trace;  ///< step labels from the initial state
  /// Structured, replayable counterexample (present iff track_traces):
  /// serialise with witness::to_json, validate with witness::replay.
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
/// Must be thread-safe when ExploreOptions::num_threads resolves to > 1.
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
