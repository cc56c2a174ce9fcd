// rc11lib/assertions/assertions.hpp
//
// The observability assertion language of Section 5.1, as executable
// predicates over configurations (ρ, γ, β):
//
//   * possible observation   ⟨x = u⟩ₜ, ⟨o.m⟩ₜ
//   * definite observation   [x = u]ₜ, [o.m]ₜ
//   * conditional observation ⟨x = u⟩[y = v]ₜ and the object-to-client form
//     ⟨o.m⟩[y = v]ₜ that the paper uses to carry library synchronisation
//     guarantees into the client
//   * covered C and hidden H assertions
//
// plus program predicates (pc and register valuations, cf. the pc₁/pc₂ and rl
// conjuncts of Fig. 7) and the usual boolean combinators.  Because the
// operational state is explicit, every assertion is directly decidable per
// configuration; the og module quantifies them over reachable state spaces.
//
// The client/library superscripts of the paper (⟨p⟩ᶜ vs ⟨p⟩ᴸ) are implicit
// here: each location knows its component, so an assertion about a client
// variable *is* a client-state assertion.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lang/config.hpp"
#include "lang/system.hpp"

namespace rc11::assertions {

using lang::Config;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadId;
using lang::Value;
using memsem::OpKind;

/// An assertion's read set: everything in a configuration its predicate may
/// read.  Two uses:
///
///   * Owicki–Gries interference checking (og/proof_outline.hpp) skips an
///     obligation when the step's write set misses the read set.  A step of
///     thread u changes only u's pc, registers and viewfront row, plus — for
///     a write, update or object call — the accessed location's operations,
///     modification order and covered bits (og/proof_outline.hpp gives the
///     argument).  So a predicate whose `threads` omit u and whose
///     `locations` omit the written location keeps its value across the
///     step.
///   * Checkers running under the execution-graph quotient (--rf-quotient)
///     pin the viewfront `entries` into the quotient key so the predicate
///     stays a function of the key (modification orders, covered bits,
///     values, pcs and registers are part of every key already).
///
/// `everything` marks a predicate with an unknown read set (pred(), the
/// generic constructor): interference checking never skips it and the
/// rf-quotient checkers reject it instead of pinning.  `threads` and
/// `locations` are sorted and duplicate-free.
struct ViewFootprint {
  bool everything = false;
  /// (thread, location) viewfront entries read — the rf-quotient's pins.
  std::vector<std::pair<ThreadId, LocId>> entries;
  /// Threads whose pc, registers or viewfront row the predicate reads.
  std::vector<ThreadId> threads;
  /// Locations whose operations, modification order or covered bits the
  /// predicate reads.
  std::vector<LocId> locations;

  /// True iff a step of thread `u` that writes `written` (nullopt for a
  /// step that writes no location) can change the predicate's value.
  [[nodiscard]] bool meets(ThreadId u, std::optional<LocId> written) const;
};

/// A named boolean predicate over configurations.  Immutable and cheaply
/// copyable; combinators build formula trees whose names pretty-print the
/// formula (used in Owicki-Gries failure reports).
class Assertion {
 public:
  using Fn = std::function<bool(const System&, const Config&)>;

  Assertion();  ///< `true`
  /// Ad-hoc predicate: the read set is unknown (ViewFootprint::everything).
  Assertion(std::string name, Fn fn);
  /// Predicate with a known read set (what the factories below use).
  Assertion(std::string name, Fn fn, ViewFootprint footprint);

  [[nodiscard]] bool eval(const System& sys, const Config& cfg) const;
  [[nodiscard]] const std::string& name() const;
  /// Everything eval() may read (see ViewFootprint).
  [[nodiscard]] const ViewFootprint& footprint() const;

  /// The constant-true assertion (annotation of uninteresting points).
  static Assertion always();

 private:
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

Assertion operator&&(Assertion a, Assertion b);
Assertion operator||(Assertion a, Assertion b);
Assertion operator!(Assertion a);
/// a ⇒ b.
Assertion implies(Assertion a, Assertion b);
/// Escape hatch for ad-hoc predicates; the read set is `everything`.
Assertion pred(std::string name, Assertion::Fn fn);

// --- variable observability (Section 5.1) -----------------------------------

/// ⟨x = v⟩ₜ: some write of v to x is observable to t.
Assertion possible_obs(ThreadId t, LocId x, Value v);

/// [x = v]ₜ: t's viewfront for x is the mo-maximal write and it wrote v
/// (t can only read v).
Assertion definite_obs(ThreadId t, LocId x, Value v);

/// ⟨x = u⟩[y = v]ₜ: every observable write of u to x is releasing and its
/// modification view definitely observes y = v — reading x = u with an
/// acquire therefore establishes [y = v]ₜ.
Assertion cond_obs(ThreadId t, LocId x, Value u, LocId y, Value v);

/// C: the only uncovered write to x is the mo-maximal one and it wrote u.
Assertion covered_var(LocId x, Value u);

/// H: a write of u to x exists and every such write is covered.
Assertion hidden_var(LocId x, Value u);

// --- lock observability (Sections 4 and 5.2) --------------------------------

/// ⟨l.release_u⟩ₜ: a release with version u is observable to t on l.
Assertion lock_possible_release(ThreadId t, LocId l, Value u);

/// [l.m_u]ₜ: t's viewfront on l is the maximal operation, which is m_u
/// (kind ∈ {LockAcquire, LockRelease, Init}).
Assertion lock_definite(ThreadId t, LocId l, OpKind kind, Value u);

/// ⟨l.release_u⟩[y = v]ₜ: every observable release_u carries a modification
/// view that definitely observes y = v (rule (6) of Lemma 3 establishes it,
/// rule (5) consumes it).
Assertion lock_cond_obs(ThreadId t, LocId l, Value u, LocId y, Value v);

/// C_{l.m_u}: the only uncovered operation on l is m_u and it is maximal.
Assertion lock_covered(LocId l, OpKind kind, Value u);

/// H_{l.m_u}: m_u exists on l and every instance is covered.
Assertion lock_hidden(LocId l, OpKind kind, Value u);

/// H_{l.init_0} — the special case used throughout Fig. 7.
Assertion lock_hidden_init(LocId l);

/// true iff thread t currently holds l (a derived mutual-exclusion helper).
Assertion lock_held_by(ThreadId t, LocId l);

// --- stack observability (Figs. 1-3; our stack semantics) -------------------

/// ⟨s.pop_v⟩: a pop would currently return v (the latest uncovered push has
/// value v).
Assertion stack_can_pop(LocId s, Value v);

/// [s.pop_emp]: a pop can only return Empty (no uncovered push).
Assertion stack_pop_empty_only(LocId s);

/// ⟨s.pop_v⟩[y = n]ₜ: if a pop would return v, the matched push is releasing
/// and its modification view definitely observes y = n — an acquiring pop of
/// v therefore establishes [y = n]ₜ.
Assertion stack_cond_obs(LocId s, Value v, LocId y, Value n);

// --- program predicates ------------------------------------------------------

/// pcₜ = pc (program points as in the paper's proof outlines).
Assertion at_pc(ThreadId t, std::uint32_t pc);

/// pcₜ ∈ set.
Assertion pc_in(ThreadId t, std::set<std::uint32_t> pcs);

/// pcₜ past the end of the thread's code (thread terminated).
Assertion thread_done(ThreadId t);

/// r = v.
Assertion reg_eq(Reg r, Value v);

/// r ∈ set.
Assertion reg_in(Reg r, std::set<Value> values);

}  // namespace rc11::assertions
