// rc11lib/og/proof_outline.hpp
//
// Owicki-Gries proof outlines and their checking (Sections 5.2-5.3).
//
// A proof outline annotates every program point of every thread (plus the
// terminal point) with an assertion, optionally together with a global
// invariant.  The paper establishes outline validity deductively (local
// correctness + interference freedom, mechanised in Isabelle/HOL); per the
// substitution documented in DESIGN.md we *check* the same obligations over
// the reachable state space of the finite instantiation:
//
//   * validity: the initial configuration satisfies all initial annotations,
//     and every reachable configuration satisfies the global invariant and,
//     for every thread, the annotation at that thread's current pc;
//   * interference freedom (the classic Owicki-Gries side condition
//     {A ∧ pre(S)} S {A}, restricted to reachable states): for every
//     reachable configuration, every annotation A of thread t that holds
//     there must still hold after any enabled step of any other thread.
//
// Validity of the conjunction-at-current-pc is what Lemma 4 / Fig. 7 assert;
// the interference check is strictly stronger (it also tests annotations at
// non-current program points) and corresponds to the actual OG obligations.
//
// Interference obligations are skipped by read set, never by guess.  A step
// of thread u changes only u's pc, registers and viewfront row, plus — when
// its instruction writes a location l (a store, RMW or object call;
// memsem::writes_location) — l's operations, modification order and covered
// bits; no step touches another thread's pc, registers or views, and an
// operation never changes once added except for its rank and covered bit,
// which only a write to its own location moves (docs/SEMANTICS.md §2, §4
// and the independence argument of §9).  Every assertion carries its read set
// (assertions::ViewFootprint: threads, locations, or "everything" for an
// ad-hoc pred()).  When the step's write set {u} ∪ {l} misses annotation
// A's read set, A has the same value before and after the step, so
// {A ∧ pre(S)} S {A} holds without evaluating A.  The checker builds, once
// per run, the list of annotations each write set meets (StepMeta is a pure
// function of the instruction, so the write set is known statically) and
// evaluates only those.  obligations_checked still counts every logical
// obligation — skipped ones included, in the full loop's order, up to a
// stop-at-first-failure break — so it is independent of the skipping;
// obligations_evaluated counts the ones actually evaluated.
//
// The module also provides a Hoare-triple checker for single statements,
// used to reproduce the per-rule properties of Lemma 3.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "assertions/assertions.hpp"
#include "explore/explorer.hpp"

namespace rc11::og {

using assertions::Assertion;
using lang::Config;
using lang::Instr;
using lang::System;
using lang::ThreadId;

/// A proof outline: annotations[t][pc] for pc in [0, code-size], where index
/// code-size is the thread's postcondition.  Missing entries default to true.
class ProofOutline {
 public:
  explicit ProofOutline(const System& sys);

  /// Sets the assertion at one program point (fails on out-of-range pc).
  void annotate(ThreadId t, std::uint32_t pc, Assertion a);

  /// Sets the thread's postcondition (annotation at its terminal pc).
  void postcondition(ThreadId t, Assertion a);

  /// Sets the global invariant (Inv of Section 5.3), checked at every state.
  void invariant(Assertion a) { invariant_ = std::move(a); }

  [[nodiscard]] const Assertion& at(ThreadId t, std::uint32_t pc) const;
  [[nodiscard]] const Assertion& global_invariant() const { return invariant_; }
  [[nodiscard]] std::uint32_t terminal_pc(ThreadId t) const;

 private:
  std::vector<std::vector<Assertion>> annotations_;
  Assertion invariant_;
};

/// One failed proof obligation.
struct ObligationFailure {
  std::string obligation;  ///< which check failed, human-readable
  std::string state_dump;
  std::vector<std::string> trace;  ///< when the run kept a trace sink
  /// Structured, replayable counterexample, present when the run kept a
  /// trace sink (track_traces or checkpoint_path): serialise with
  /// witness::to_json, validate with witness::replay.
  std::optional<witness::Witness> witness;
};

struct OutlineCheckResult {
  bool valid = true;
  std::vector<ObligationFailure> failures;
  explore::ExploreStats stats;  ///< size of the examined state space
  /// Logical obligations, counted as if every interference obligation were
  /// evaluated (see the read-set rule at the top of this file).
  std::uint64_t obligations_checked = 0;
  /// Obligations whose assertions were actually evaluated: every validity
  /// obligation, and the interference obligations the read sets could not
  /// rule out.
  std::uint64_t obligations_evaluated = 0;
  /// Why the enumeration ended; anything but Complete means only part of
  /// the state space was checked and `valid` is not a proof (a
  /// stop_at_first_failure stop is Complete — the verdict is definite).
  engine::StopReason stop = engine::StopReason::Complete;
};

/// The outline checker's options.  The engine::RunControl base holds the
/// run's reductions, limits and controls (engine/reach.hpp); of the
/// reductions, all are honoured:
///   * por — annotations and interference obligations are evaluated on the
///     reduced state set: failures found are real, and failures at
///     final/blocked states (postconditions, deadlocks) are never missed,
///     but an obligation violated only at a pruned intermediate interleaving
///     may be — POR trades the full quantification of the Owicki–Gries side
///     conditions for outcome-level soundness.  The PorCrosscheck test
///     checks exact verdict agreement on the outline corpus.
///   * symmetry — exact: obligations are evaluated at every orbit member of
///     each visited representative, with the member's enabled steps obtained
///     by permuting the representative's (the group action commutes with the
///     successor relation), so the verdict, the set of failed obligations and
///     obligations_checked equal an unreduced run's.  Failure traces lead to
///     the representative; a failure at a permuted member is flagged in its
///     trace.
///   * rf_quotient — check_outline pins the view footprint of every
///     annotation and of the global invariant into the quotient key, which
///     makes every obligation a function of the key: the verdict, the set of
///     failed obligations and obligations-per-class equal an unreduced run's
///     per merged class (the total obligations_checked count shrinks with
///     the visited set).  Rejected loudly when any annotation has an unknown
///     footprint (assertions::pred).
///   * mode == Strategy::Sample — the obligations are evaluated on the
///     states `sample.episodes` seeded random schedules cross: failures
///     found are real, but `valid` is never a proof — the result stops with
///     StopReason::EpisodeCap, so callers reading `stop` already treat the
///     verdict as a lower bound.
/// The default of one worker suits the checker: outline checking is the
/// substitution for the paper's Owicki–Gries proofs, and a one-worker DFS
/// gives reproducible failure order.  With more workers the verdict and the
/// *set* of failed obligations are identical, but failures arrive unordered
/// and the trace/witness attached to each may differ run to run.
struct OutlineCheckOptions : engine::RunControl {
  bool check_interference = true;  ///< also run the pairwise OG side condition
  bool stop_at_first_failure = true;
  bool track_traces = false;
};

/// Checks outline validity (and, optionally, interference freedom) over the
/// reachable state space.
[[nodiscard]] OutlineCheckResult check_outline(const System& sys,
                                               const ProofOutline& outline,
                                               OutlineCheckOptions options = {});

// --- Hoare triples for single statements (Lemma 3) ---------------------------

/// Selects the statements a triple is about, e.g. "any lock-acquire by
/// thread t on location l".
using StatementFilter = std::function<bool(ThreadId t, const Instr&)>;

/// Postcondition over (configuration before, configuration after) — binding
/// the paper's version variable v is done by inspecting `after` (e.g. the
/// version of the operation the statement created).
using TriplePost =
    std::function<bool(const System&, const Config& before, const Config& after)>;

struct TripleCheckResult {
  bool valid = true;
  std::uint64_t instances_checked = 0;  ///< (state, step) pairs examined
  std::vector<ObligationFailure> failures;
};

/// Checks {pre} S {post} for every reachable configuration of `sys` where
/// `pre` holds and an enabled step matches `filter`: every such step must
/// lead to a configuration satisfying `post`.  Vacuously valid (but reported
/// via instances_checked == 0) if no instance arises — callers should assert
/// on instances_checked to guard against vacuity.
[[nodiscard]] TripleCheckResult check_triple(const System& sys,
                                             const Assertion& pre,
                                             const StatementFilter& filter,
                                             const TriplePost& post,
                                             std::uint64_t max_states = 1'000'000);

}  // namespace rc11::og
