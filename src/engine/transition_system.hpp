// rc11lib/engine/transition_system.hpp
//
// The shared transition-system abstraction all four checkers sit on.  A
// TransitionSystem produces, for any configuration, the enabled steps of the
// combined operational semantics — each tagged with independence metadata
// (acting thread, accessed location, read/write/RMW/object kind, sync flag;
// see lang::StepMeta) — plus the state-local reduction the generic
// reachability driver (engine/reach.hpp) can apply: ample-set partial-order
// reduction.
//
// One concrete class covers client-only systems, clients over abstract
// objects and clients over inlined library implementations uniformly:
// lang::successors already dispatches on instruction and location kinds, so
// the three system shapes differ only in which instruction kinds their code
// contains, not in how successors are produced or classified.
//
// --- the independence relation -----------------------------------------------
//
// Two steps a, b of *different* threads are treated as dependent iff
//
//   (1) both access a location, the location is the same, and at least one
//       of them writes it (plain write, RMW, or object method call), or
//   (2) either step carries a sync (rel/acq) flag — non-relaxed plain
//       access, RMW (always RA), or object method call.
//
// Same-thread steps are always dependent (program order).  Steps of *local*
// instructions (Assign / Branch / Jump) touch no location and carry no
// flags, so they are independent of every other-thread step: they read and
// write only the acting thread's registers and pc, and no other thread's
// step can read or write those — in the RC11 RAR semantics view transfer
// happens exclusively through memory operations (docs/SEMANTICS.md §9).
// This relation over-approximates true dependence (e.g. two acquiring loads
// of distinct locations commute in the semantics but are declared
// dependent), which is the safe direction for the reduction.
//
// --- ample sets --------------------------------------------------------------
//
// ample_thread() returns a thread t whose full enabled-step set at cfg is a
// *persistent* set under the relation above: t's next instruction is local
// (modulo the policy below), subject to the cycle proviso that every ample
// step strictly increases t's program counter.  Memory steps are never
// ample: only a local step is independent of every other-thread step
// whatever the other threads' code.
//
// Eligibility reads only t's next instruction and registers, so ample
// selection is a pure function of the configuration: the reduced state
// graph is identical for every worker count and trace mode.  The
// pc-progress proviso makes a cycle consisting solely of ample transitions
// impossible (the sum of pcs strictly increases along ample edges and no
// ample step decreases any pc), which defuses the ignoring problem.
// Soundness: reduced and full exploration reach exactly the same final and
// blocked states; see docs/SEMANTICS.md §9 for the argument and the caveat
// on per-state invariants.

#pragma once

#include <cstdint>
#include <optional>

#include "lang/config.hpp"

namespace rc11::engine {

using lang::Config;
using lang::StepBuffer;
using lang::System;
using lang::ThreadId;

/// Which steps an ample set may be built from.
enum class AmplePolicy : std::uint8_t {
  /// Sound for final/blocked-state properties (outcome sets, deadlocks,
  /// outline postconditions): any local step.
  FinalState,
  /// Additionally requires ample steps to be invisible to the client
  /// projection of refinement.hpp (Branch/Jump; Assign only to
  /// Library-component registers), so reduced state graphs preserve the
  /// stutter-reduced projection traces the refinement checkers compare.
  ClientInvisible,
};

/// The driver-level independence relation over step footprints (see the
/// header comment): true iff steps with these metadata, taken by *different*
/// threads, commute and preserve each other's step sets.  Local steps are
/// independent of every other-thread step; otherwise either sync flag or a
/// same-location conflict with at least one writer makes the pair dependent.
/// Shared by ample-set eligibility reasoning and the driver's sleep-set
/// pruning (engine/reach.hpp).
[[nodiscard]] constexpr bool steps_independent(const lang::StepMeta& a,
                                               const lang::StepMeta& b) noexcept {
  if (a.access == memsem::AccessKind::Local ||
      b.access == memsem::AccessKind::Local) {
    return true;
  }
  if (a.sync || b.sync) return false;
  if (a.loc != b.loc) return true;
  return !memsem::writes_location(a.access) &&
         !memsem::writes_location(b.access);
}

/// Successor production + reduction eligibility for one lang::System.
class TransitionSystem final {
 public:
  explicit TransitionSystem(const System& sys,
                            AmplePolicy policy = AmplePolicy::FinalState);

  [[nodiscard]] const System& system() const { return *sys_; }
  [[nodiscard]] Config initial() const;

  /// Clears `out` and fills it with every enabled step of every thread,
  /// tagged with independence metadata (Step::meta).
  void successors_into(const Config& cfg, StepBuffer& out,
                       bool want_labels) const;

  /// Clears `out` and fills it with thread t's enabled steps only.
  void thread_successors_into(const Config& cfg, ThreadId t, StepBuffer& out,
                              bool want_labels) const;

  /// A thread whose enabled steps form a valid ample set at `cfg` (see the
  /// header comment), or nullopt when only full expansion is sound.  A pure
  /// function of `cfg` and thread-safe.
  [[nodiscard]] std::optional<ThreadId> ample_thread(const Config& cfg) const;

  /// Whether the reachability driver may additionally *collapse*
  /// deterministic local ample chains under POR: when a state's ample thread
  /// is at a local instruction, that single successor is fast-forwarded
  /// until the first state with no such step, and the intermediate states
  /// are never visited (they are still interned in a trace sink, as real
  /// single steps, so witnesses replay unchanged).  This is where most of
  /// the visited-state reduction comes from — ample pruning alone only
  /// removes transitions whose target states usually stay reachable through
  /// other interleavings.  Sound for final/blocked-state properties (chain
  /// states always have an enabled step, so no final or blocked state is
  /// ever skipped); off under ClientInvisible because graph builders need
  /// single-step edges between the states they collect.
  [[nodiscard]] bool collapse_chains() const {
    return policy_ == AmplePolicy::FinalState;
  }

 private:
  [[nodiscard]] bool ample_eligible(const Config& cfg, ThreadId t) const;

  const System* sys_;
  AmplePolicy policy_;
};

/// The class's earlier name, kept for perfbench/layers.cpp.
using SystemTransitions = TransitionSystem;

}  // namespace rc11::engine
