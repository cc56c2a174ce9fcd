// rc11lib/engine/symmetry.hpp
//
// Thread-symmetry reduction for the reachability engine.
//
// The refinement checker's parameterised most-general clients — and the
// worker/counter benchmark families — are thread-symmetric by construction:
// every client thread runs the same program text over its own registers.
// Permuting such threads in a configuration yields a configuration with a
// permutation-isomorphic future, so the state space contains up to n!
// permutation-equivalent copies of every state.  This module quotients
// exploration by that group action.
//
// --- eligibility (proved, not assumed) ---------------------------------------
//
// Two threads are interchangeable iff the front end can prove their program
// text identical modulo thread id: same instruction sequence (kind, operands,
// expressions, memory order, branch targets), same register file shape
// (count, component tags, initial values).  Register names are display-only:
// instructions carry no text, so two threads that differ only in what they
// call their registers are interchangeable.  analyze() partitions the
// system's threads into maximal such classes; only classes of size >= 2
// induce any reduction.  Programs with per-thread constants (e.g. the mgc
// client's thread-unique written values) partition into singletons and the
// reduction degenerates to the identity — requesting --symmetry on them is a
// sound no-op.
//
// --- the group action --------------------------------------------------------
//
// A permutation pi acting on a configuration (P, rho, gamma):
//   * pc and register files are reindexed: (pi.cfg).pc[pi(t)] = cfg.pc[t];
//   * every memory operation's executing thread is relabelled pi(t), init
//     operations excepted (the initial state is a fixed point);
//   * thread viewfronts are reindexed rows; per-operation modification views
//     are per-*location* vectors and are untouched;
//   * under race detection, the clock matrix's rows and columns, clock
//     messages and last-access summaries are reindexed the same way;
//   * modification order, values, covered flags and timestamps are untouched.
// Because interchangeable threads run identical code, the successor relation
// is equivariant: steps(pi.cfg) = pi.steps(cfg) with acting threads
// relabelled.  Hence permutation-equivalent states have permutation-
// equivalent futures — the soundness core (DESIGN.md, symmetry section).
//
// --- canonicalisation --------------------------------------------------------
//
// canonicalize() computes a representative encoding that is a pure function
// of the orbit: class members are sorted by a per-thread signature (pc,
// registers, thread viewfront row — all components that transform
// covariantly), and the usually-rare signature ties are broken by
// enumerating the tie permutations and taking the lexicographically minimal
// full encoding.  Each candidate is the canonical encoding read through a
// thread relabelling (Config::encode_into with a memsem::EncodeView), so a
// key has exactly the words of the permuted configuration's encoding and
// no copy of the layout lives here.  When the tie blow-up exceeds
// kMaxTieCandidates the canonicaliser keeps the oversized tie groups fixed —
// the quotient is then under-approximated (some orbits split into several
// representatives), which only costs reduction, never soundness.  All
// permutations achieving the chosen encoding are reported; their count > 1
// exactly when the state has a non-trivial (discovered) stabiliser, which
// callers that attach per-thread metadata to canonical states (sleep masks)
// must intersect over.
//
// --- scratch ownership -------------------------------------------------------
//
// canonicalize() runs on every successor, so it works in flat scratch the
// reducer owns: one signature buffer (member i of a class at i * stride,
// stride = 1 + registers + locations, equal across a class because its
// threads share a register file), one thread-id array holding every class's
// slot order at offsets fixed by the constructor, and the tie, candidate and
// permutation buffers.  Once they have grown to the system's sizes a key
// allocates nothing: the minimal candidate is swapped into the caller's
// AbstractKey and permutations are copy-assigned into its existing inner
// vectors.  The scratch is mutable and per instance, so an instance that
// canonicalises must not be shared across threads — each worker keys through
// its own copy of the run's StateAbstraction.  for_each_orbit,
// for_each_perm and permuted touch no scratch, so one reducer may serve
// every visitor thread for those.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lang/config.hpp"

namespace rc11::engine {

using lang::Config;
using lang::System;
using lang::ThreadId;

/// A permutation of thread ids, stored as slot_of[t] = the slot (new thread
/// id) thread t maps to.  Identity when slot_of[t] == t for all t.
using ThreadPerm = std::vector<ThreadId>;

/// The abstract key of one configuration: the encoding the visited set
/// deduplicates by, plus the concrete-to-canonical thread permutations when
/// the abstraction has any (empty means the identity — concrete and
/// rf-quotient keys are already in concrete thread coordinates).
struct AbstractKey {
  /// The representative encoding (for the symmetry quotient, the
  /// lexicographically minimal one over the candidate permutations).
  std::vector<std::uint64_t> encoding;
  /// Every candidate permutation that achieves `encoding` (at least one
  /// under symmetry; none for abstractions that keep concrete thread
  /// coordinates).  More than one means the state has a discovered
  /// stabiliser.
  std::vector<ThreadPerm> perms;
  /// False when a tie group exceeded kMaxTieCandidates and was left
  /// unpermuted: `perms` may then miss minimising permutations, so
  /// stabiliser-closure arguments (canonical sleep masks) do not hold —
  /// sleep masks attached to this key must degrade to empty.
  bool complete = true;
};

class SymmetryReducer {
 public:
  /// Beyond this many tie-break candidates per state the oversized tie
  /// groups are left unpermuted (sound under-approximation of the quotient).
  static constexpr std::size_t kMaxTieCandidates = 720;
  /// Orbits larger than this disable the reduction outright (orbit closure
  /// of finals/invariants would dominate the run).  8! covers every
  /// realistic corpus instance.
  static constexpr std::size_t kMaxOrbit = 40320;

  /// Analyses `sys` and fixes the symmetry classes for its lifetime.
  explicit SymmetryReducer(const System& sys);

  /// True iff at least one class has >= 2 interchangeable threads (and the
  /// orbit bound holds) — i.e. the quotient is non-trivial.
  [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

  /// The symmetry classes of size >= 2, each a sorted list of thread ids.
  [[nodiscard]] const std::vector<std::vector<ThreadId>>& classes() const {
    return classes_;
  }

  /// Canonicalises `cfg` into `out` (every field overwritten).  Uses the
  /// reducer's scratch, so a reducer instance must not canonicalise on two
  /// threads at once — drivers keep one per worker.
  void canonicalize(const Config& cfg, AbstractKey& out) const;

  /// Converts a per-thread bitmask (bit t = thread t) into canonical slot
  /// coordinates, intersecting over all reported permutations so a slot is
  /// only set when *every* concrete-to-canonical isomorphism agrees.
  [[nodiscard]] static std::uint64_t mask_to_canonical(
      std::uint64_t mask, const std::vector<ThreadPerm>& perms);

  /// Converts a canonical slot mask back into concrete thread coordinates of
  /// the configuration `perm` was reported for.  Any one permutation of the
  /// reporting set works (the canonical mask is already stabiliser-closed).
  [[nodiscard]] static std::uint64_t mask_from_canonical(
      std::uint64_t mask, const ThreadPerm& perm);

  /// Applies `perm` to `cfg`, returning the permuted configuration (a real
  /// configuration of the same system; used for orbit closure of finals,
  /// invariants and proof obligations).
  [[nodiscard]] Config permuted(const Config& cfg, const ThreadPerm& perm) const;

  /// Invokes `fn(member, perm)` once per *distinct* configuration in the
  /// orbit of `cfg` (including `cfg` itself, first, under the identity).
  /// Distinctness is by canonical state encoding, so stabiliser permutations
  /// do not repeat members.  `perm` maps `cfg`'s thread ids to `member`'s
  /// (member = permuted(cfg, perm)) — callers that also need the member's
  /// *steps* permute each rep step's acting thread through it.
  void for_each_orbit(
      const Config& cfg,
      const std::function<void(const Config&, const ThreadPerm&)>& fn) const;

  /// Invokes `fn(perm)` once per group element (all ∏|class|! permutations).
  void for_each_perm(const std::function<void(const ThreadPerm&)>& fn) const;

 private:
  /// A run of >= 2 members with equal signatures, as [begin, end) positions
  /// in order_.
  struct TieGroup {
    std::size_t begin;
    std::size_t end;
  };

  ThreadId num_threads_ = 0;
  bool symmetric_ = false;
  std::vector<std::vector<ThreadId>> classes_;  ///< classes of size >= 2
  /// Class c's slot order occupies order_[class_begin_[c], class_begin_[c+1]).
  std::vector<std::size_t> class_begin_;

  // canonicalize()'s scratch (see "scratch ownership" above).
  mutable std::vector<std::uint64_t> sigs_, candidate_;
  mutable std::vector<std::size_t> idx_;
  mutable std::vector<ThreadId> order_;
  mutable std::vector<TieGroup> enumerated_;
  mutable ThreadPerm slot_of_, thread_of_;
};

}  // namespace rc11::engine
