// rc11lib/engine/abstraction.hpp
//
// The state-equivalence layer of the reachability engine: what it means for
// two configurations to be "the same" for visited-set purposes.
// The driver (engine/reach.hpp) deduplicates states by an *abstract key*
// computed here; everything downstream of the key — frontier ownership,
// sleep-mask storage, budget accounting — is abstraction-agnostic.  Trace
// sinks, witnesses and checkpoints always stay concrete: the abstraction
// only decides which arrivals are folded together, never what a recorded
// step looks like.
//
// One value, StateAbstraction, built from the run's Reduction, computes
// one of three keys, all written by Config::encode_into: the two quotients
// differ from Concrete only in the memsem::EncodeView they pass.
//
//   * Concrete — the identity abstraction: the key is the configuration's
//     canonical encoding (Config::encode_into).  Used by the driver's
//     sleep-set-only reduced path, and the baseline every quotient's
//     exactness is cross-checked against.
//
//   * Symmetry — the thread-permutation orbit quotient
//     (engine/symmetry.hpp): the key is the lexicographically minimal
//     encoding over the interchangeable-thread permutations, each read
//     through a thread relabelling view, with the achieving permutations
//     reported so per-thread sleep masks can be transported into and out
//     of canonical coordinates.
//
//   * RfQuotient — the execution-graph quotient (--rf-quotient): the key is
//     the canonical encoding read through a viewfront keep mask
//     (Config::encode_into with memsem::EncodeView::tview_keep).  It keeps
//     the program state and the full modification order — reads-from
//     (Update read values), mo positions, covering, releasing bits,
//     executing threads — plus exactly the view state a continuation can
//     still observe, and drops the rest:
//
//       - a thread's viewfront entry for location l is kept iff the thread
//         can still reach an instruction accessing l (one whose
//         lang::access_footprint names l: its enabled reads, writes and
//         RMWs on l are constrained by that entry), or the thread can
//         still reach a *view-exporting* instruction — one that writes its
//         location and synchronises: a releasing store, an RMW, or any
//         object-method call — each of which snapshots the whole viewfront
//         row into a kept modification view, or the entry is pinned by the
//         caller (assertion footprints; see RfPins);
//
//       - a non-releasing plain-variable operation's modification view is
//         dropped: under RC11 RAR no synchronisation path ever merges it
//         (reads and updates only synchronise with releasing writes, and
//         object synchronisation only targets object locations).
//
//     Two states with equal keys therefore have identical program state,
//     identical execution graphs and identical observable views, so their
//     enabled steps coincide and every step leads to equal-keyed states
//     again (the keep mask only shrinks along transitions — reachability is
//     closed under predecessors): the quotient is a bisimulation for final
//     outcomes, invariant/obligation verdicts over pinned footprints, and
//     race sets (clocks are part of the key).  Interleavings that build the
//     same graph differ only in dead view history and are merged — the
//     CDSChecker-style reduction the ROADMAP's reads-from item asks for —
//     which is what cuts store-heavy *asymmetric* programs where --symmetry
//     has no orbit to quotient.  DESIGN.md (StateAbstraction section) gives
//     the full soundness argument; the --rf-quotient flag is rejected under
//     MemoryModel::SC (every access synchronises there, so dropped entries
//     would be observable) and may not be combined with --symmetry (v1).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/sample.hpp"
#include "engine/symmetry.hpp"
#include "lang/config.hpp"

namespace rc11::engine {

/// Extra (thread, location) viewfront entries the rf quotient key must keep
/// even where liveness analysis would drop them: the view footprints of the
/// assertions a checker evaluates per state (assertions::Assertion::
/// footprint()).  Checkers that evaluate footprint-less predicates under
/// --rf-quotient must reject the combination instead.
struct RfPins {
  std::vector<std::pair<lang::ThreadId, lang::LocId>> entries;
};

/// The run's state-equivalence key: Concrete, Symmetry or RfQuotient (see
/// the header comment).  A copyable value; key() reuses mutable scratch, so
/// one value must not key on two threads at once — the driver gives each
/// worker its own copy.
class StateAbstraction {
 public:
  /// Concrete: the key is the canonical encoding.
  StateAbstraction() = default;

  /// The key `reduction` asks for over `sys`: Symmetry when it asks for
  /// `symmetry` and `sys` has interchangeable threads, RfQuotient keeping
  /// `pins` when it asks for `rf_quotient`, Concrete otherwise.
  /// reduction_conflict rejects asking for both.
  StateAbstraction(const System& sys, const Reduction& reduction,
                   const RfPins& pins = {});

  [[nodiscard]] bool symmetry() const noexcept { return symmetry_.has_value(); }
  [[nodiscard]] bool rf_quotient() const noexcept { return rf_quotient_; }
  /// True iff the key can differ from the concrete encoding.
  [[nodiscard]] bool nontrivial() const noexcept {
    return symmetry() || rf_quotient();
  }

  /// Computes the key of `cfg` into `out` (all fields overwritten).
  void key(const Config& cfg, AbstractKey& out) const;

 private:
  std::optional<SymmetryReducer> symmetry_;
  bool rf_quotient_ = false;
  lang::LocId num_locs_ = 0;
  /// RfQuotient, per thread: (code size + 1) rows of num_locs_ bytes, the
  /// locations the thread can still access from each pc.
  std::vector<std::vector<std::uint8_t>> access_;
  /// RfQuotient, per thread: (code size + 1) bytes, whether the thread can
  /// still export its view from each pc.
  std::vector<std::vector<std::uint8_t>> exports_;
  mutable std::vector<std::uint8_t> keep_;  ///< per-state scratch
};

/// True iff the key's reported permutation is the identity (always true for
/// abstractions that report no permutations).
[[nodiscard]] bool key_is_identity(const AbstractKey& key);

/// Transports a per-thread bitmask into the key's canonical coordinates
/// (identity when the key reports no permutations).  See
/// SymmetryReducer::mask_to_canonical for the stabiliser-intersection rule.
[[nodiscard]] std::uint64_t mask_to_abstract(std::uint64_t mask,
                                             const AbstractKey& key);

/// Inverse transport through the key's first reported permutation.
[[nodiscard]] std::uint64_t mask_from_abstract(std::uint64_t mask,
                                               const AbstractKey& key);

/// The Concrete and Symmetry keys on the heap, kept for perfbench/layers.cpp.
[[nodiscard]] std::unique_ptr<StateAbstraction> make_concrete_abstraction();
[[nodiscard]] std::unique_ptr<StateAbstraction> make_symmetry_abstraction(
    const System& sys);

}  // namespace rc11::engine
