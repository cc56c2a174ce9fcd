// rc11lib/litmus/litmus.hpp
//
// A library of classic RC11 RAR litmus tests, plus the paper's two motivating
// client-library programs (Figures 1 and 2).  Each test packages a System,
// the registers whose final values constitute the outcome, and the exact set
// of outcomes the RC11 RAR semantics allows.  Tests and benchmarks check the
// *reachable outcome set equals the allowed set* — both directions: every
// allowed weak behaviour is exhibited, every forbidden one is excluded.

#pragma once

#include <string>
#include <vector>

#include "lang/system.hpp"

namespace rc11::litmus {

using lang::Reg;
using lang::System;
using lang::Value;

struct LitmusTest {
  std::string name;
  std::string description;
  System sys;
  std::vector<Reg> observed;
  /// Exact expected outcome set (sorted lexicographically).
  std::vector<std::vector<Value>> allowed;
};

/// MP: d := 5; f :=R 1  ||  r1 <-A f; r2 <- d — release/acquire message
/// passing over plain variables; r1 = 1 forces r2 = 5.
LitmusTest mp_release_acquire();

/// MP with all accesses relaxed: the stale outcome r1 = 1, r2 = 0 appears.
LitmusTest mp_relaxed();

/// SB (store buffering): x := 1; r1 <- y || y := 1; r2 <- x.  The weak
/// outcome r1 = r2 = 0 is allowed in RC11 (even with release/acquire).
LitmusTest sb_release_acquire();

/// LB (load buffering): r1 <- x; y := 1 || r2 <- y; x := 1.  RC11 RAR
/// disallows load-buffering cycles: r1 = r2 = 1 must be unreachable.
LitmusTest lb_relaxed();

/// CoRR (coherence of read-read): two reads of the same variable by one
/// thread may not observe writes against modification order.
LitmusTest corr();

/// CoWW+reads: one thread writes 1 then 2; reader sees a mo-monotone pair.
LitmusTest coww_reads();

/// IRIW with release/acquire: the two readers may disagree on the order of
/// independent writes (this is what distinguishes RA from SC).
LitmusTest iriw_release_acquire();

/// Two competing CAS(x, 0, _) operations: exactly one succeeds (update
/// atomicity via the covered set).
LitmusTest cas_agreement();

/// Two FAI(x) operations return distinct consecutive tickets.
LitmusTest fai_tickets();

/// 2W+reads: two threads each write (a different value to) the same
/// variable, a third reads it twice.  Coherence allows any mo-monotone pair
/// under either modification order, but never a read moving backwards.
/// This is also the shape whose order-isomorphic states carry *different*
/// raw timestamps depending on the interleaving, so it is the key workload
/// of the A3 canonicalisation ablation.
LitmusTest two_writers();

/// Figure 1: unsynchronised message passing via a relaxed library stack —
/// popping the message does NOT guarantee seeing the client write (r2 may
/// be 0 or 5).
LitmusTest fig1_stack_mp_relaxed();

/// Figure 2: publication via a synchronising stack (pushR / popA) — popping
/// the message guarantees r2 = 5.
LitmusTest fig2_stack_mp_sync();

/// All of the above, for suite-style iteration in tests and benches.
std::vector<LitmusTest> all_tests();

/// Explores `test.sys` (with `num_threads` workers, explore::ExploreOptions
/// convention) and returns the reachable outcome set over `test.observed`,
/// sorted lexicographically — directly comparable against `test.allowed`.
[[nodiscard]] std::vector<std::vector<Value>> reachable_outcomes(
    const LitmusTest& test, unsigned num_threads = 1);

/// True iff the reachable outcome set equals the allowed set exactly (both
/// directions: every allowed weak behaviour exhibited, every forbidden one
/// excluded) and exploration was not truncated.
[[nodiscard]] bool check(const LitmusTest& test, unsigned num_threads = 1);

/// Causality-chain tests with *partial* expectations: the full outcome sets
/// are large, so these specify key outcomes that must be reachable and key
/// outcomes RC11 RAR must exclude.
struct CausalityTest {
  std::string name;
  std::string description;
  System sys;
  std::vector<Reg> observed;
  std::vector<std::vector<Value>> must_allow;
  std::vector<std::vector<Value>> must_forbid;
};

/// WRC (write-read causality) with release/acquire: T3 acquiring y = 1 after
/// T2 published it having acquired x = 1 must see x = 1.
CausalityTest wrc_release_acquire();

/// WRC with relaxed accesses: the causality violation becomes observable.
CausalityTest wrc_relaxed();

/// ISA2: a two-hop release/acquire chain through y and z publishes x.
CausalityTest isa2_release_acquire();

/// S: a release/acquire edge orders two writes to x in modification order.
CausalityTest s_shape();

std::vector<CausalityTest> all_causality_tests();

/// Data-race classification tests: programs mixing non-atomic and atomic
/// accesses whose racy/race-free verdict is known by construction.  Checked
/// by race::check (src/race/race.hpp); `racy` is the expected verdict, and
/// the verdict must be identical under every engine configuration (worker
/// counts, POR, symmetry, sampling) — the race crosscheck tests assert
/// set-level agreement, not just the boolean.
struct RaceTest {
  std::string name;
  std::string description;
  System sys;
  bool racy = false;
};

/// MP with a non-atomic payload and only a relaxed flag: racy.
RaceTest race_mp_na();
/// The fixed version: release flag write / acquire flag read: race-free.
RaceTest race_mp_na_release();
/// Broken double-checked init (relaxed guard read, symmetric threads): racy.
RaceTest race_dcl_broken();
/// CAS-elected initialiser + release/acquire publication (symmetric):
/// race-free.
RaceTest race_dcl_init();
/// Spin loop polling the flag with non-atomic reads against an atomic
/// writer: racy (on the flag, not the data).
RaceTest race_flag_spin();
/// Per-thread-disjoint non-atomic accesses: race-free control.
RaceTest race_disjoint_na();
/// Non-atomic increments under an abstract lock: race-free (object
/// synchronisation orders the critical sections).
RaceTest race_lock_protected();
/// All-atomic relaxed MP: race-free (no non-atomic access, no race by
/// definition — relaxed atomics may be weak, never racy).
RaceTest race_atomic_only();

std::vector<RaceTest> all_race_tests();

/// Message passing with computed payload: the producer assembles its message
/// through a chain of `work` local assignments before the d-then-release-f
/// handoff, and the consumer post-processes what it read through another
/// chain of `work` local assignments.  Not a litmus test (no fixed expected
/// outcome set — sweep `work`); this is the message-passing benchmark family
/// of the partial-order reduction: every local step interleaves with the
/// other thread in the full graph but collapses under --por.
[[nodiscard]] System mp_compute(unsigned work);

/// mp_compute with a spinning consumer: the consumer acquires f in a
/// do-until loop instead of a single load, adding the spin states a real
/// message-passing idiom has.
[[nodiscard]] System mp_spin_compute(unsigned work);

}  // namespace rc11::litmus
