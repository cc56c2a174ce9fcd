// Thread-symmetry reduction: soundness, exactness and the reduction
// headline (see engine/symmetry.hpp for the quotient construction and
// DESIGN.md for the soundness argument).
//
// The tests check that --symmetry preserves everything it promises to
// preserve — final-configuration sets, litmus outcome sets,
// invariant-violation sets, outline and refinement verdicts, witness
// replayability, checkpoint round-trips — on representative systems, at one
// worker and at four, composed with POR, and that it actually reduces the
// symmetric workloads it targets.  Programs with no interchangeable threads
// must come out bit-identical to an unreduced run (the sound-no-op claim).
//
// SymCrosscheck widens the comparison to the complete corpus: every litmus
// test, every causality test, every case study, every sample program and
// every lock-implementation/client pairing, each checked for exact
// agreement between the quotiented and full explorations.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/checkpoint.hpp"
#include "explore/explorer.hpp"
#include "litmus/case_studies.hpp"
#include "litmus/litmus.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/catalog.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using engine::StopReason;
using explore::ExploreOptions;
using lang::System;

std::vector<std::vector<std::uint64_t>> final_encodings(
    const explore::ExploreResult& result) {
  std::vector<std::vector<std::uint64_t>> encodings;
  encodings.reserve(result.final_configs.size());
  for (const auto& cfg : result.final_configs) {
    encodings.push_back(cfg.encode());
  }
  return encodings;
}

/// The (what, state_dump) multiset is the thread-count- and
/// reduction-independent part of a violation report (traces may differ).
std::vector<std::pair<std::string, std::string>> violation_keys(
    const explore::ExploreResult& result) {
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(result.violations.size());
  for (const auto& v : result.violations) {
    keys.emplace_back(v.what, v.state_dump);
  }
  return keys;
}

/// Full vs. quotiented exploration of `sys` must agree on the final-state
/// set, the blocked count and truncation, at every worker count and with
/// POR layered on top.  The quotient may never visit MORE states.
void expect_sym_exact(const System& sys, const std::string& what) {
  ExploreOptions full;
  const auto reference = explore::explore(sys, full);
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1U, 4U}) {
      ExploreOptions reduced;
      reduced.symmetry = true;
      reduced.por = por;
      reduced.num_threads = workers;
      const auto r = explore::explore(sys, reduced);
      EXPECT_EQ(final_encodings(r), final_encodings(reference))
          << what << " (threads " << workers << ", por " << por
          << "): final-state sets differ";
      EXPECT_EQ(r.stats.blocked, reference.stats.blocked)
          << what << " (threads " << workers << ", por " << por
          << "): blocked counts differ";
      EXPECT_EQ(r.truncated, reference.truncated) << what;
      EXPECT_LE(r.stats.states, reference.stats.states)
          << what << ": a reduction may never visit MORE states";
    }
  }
}

double sym_reduction_factor(const System& sys, bool por) {
  ExploreOptions base;
  base.por = por;
  ExploreOptions reduced = base;
  reduced.symmetry = true;
  const auto a = explore::explore(sys, base);
  const auto b = explore::explore(sys, reduced);
  EXPECT_EQ(final_encodings(a), final_encodings(b));
  EXPECT_GT(b.stats.symmetry_hits, 0u)
      << "a symmetric workload must actually hit the quotient";
  return static_cast<double>(a.stats.states) /
         static_cast<double>(b.stats.states);
}

TEST(Symmetry, LitmusOutcomeSetsExact) {
  for (const auto& test : litmus::all_tests()) {
    expect_sym_exact(test.sys, test.name);
    // The outcome set is the litmus verdict itself: with the quotient on it
    // must still equal the allowed set exactly (finals are orbit-closed).
    ExploreOptions reduced;
    reduced.symmetry = true;
    const auto result = explore::explore(test.sys, reduced);
    EXPECT_EQ(explore::final_register_values(test.sys, result, test.observed),
              test.allowed)
        << test.name << " outcome set changed under symmetry";
  }
}

TEST(Symmetry, CaseStudiesExact) {
  expect_sym_exact(litmus::peterson_counter().sys, "peterson");
  expect_sym_exact(litmus::dekker_counter().sys, "dekker");
  expect_sym_exact(litmus::barrier_exchange().sys, "barrier");
}

TEST(Symmetry, SymmetricWorkloadsExactAndReduced) {
  // Identical worker threads are the archetype: the quotient must agree
  // with the unreduced run on everything observable and visit at least
  // |orbit|-ish fewer states (the test asserts a conservative >= 2x; the
  // >= 10x headline is asserted on the larger benchmark instances in
  // bench/bench_sym.cpp).
  locks::TicketLock ticket;
  const auto sys =
      locks::instantiate(locks::worker_client(3, 1, 2), ticket);
  expect_sym_exact(sys, "ticket worker(3,1,2)");
  EXPECT_GE(sym_reduction_factor(sys, /*por=*/false), 2.0);
  EXPECT_GE(sym_reduction_factor(sys, /*por=*/true), 2.0)
      << "symmetry must keep winning on top of POR";
}

TEST(Symmetry, NoopOnAsymmetricPrograms) {
  // No two threads of the MP litmus share code: the reducer must classify
  // the system as asymmetric and the run must come out state-for-state
  // identical to an unreduced one (sleep sets prune transitions, never
  // states).
  const auto sys = litmus::mp_release_acquire().sys;
  ExploreOptions full;
  const auto reference = explore::explore(sys, full);
  ExploreOptions reduced;
  reduced.symmetry = true;
  const auto r = explore::explore(sys, reduced);
  EXPECT_EQ(r.stats.symmetry_hits, 0u);
  EXPECT_EQ(r.stats.states, reference.stats.states);
  EXPECT_EQ(r.stats.finals, reference.stats.finals);
  EXPECT_EQ(r.stats.blocked, reference.stats.blocked);
  EXPECT_EQ(final_encodings(r), final_encodings(reference));
}

TEST(Symmetry, InvariantViolationSetsExact) {
  // Violations are compared on the (what, state_dump) multiset: the
  // explorer evaluates the invariant at every orbit member of each visited
  // representative, so the quotiented set must equal the unreduced one even
  // when the violating state is not the representative.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::counter_client(2, 1), ticket);
  const explore::Invariant inv =
      [](const System& s, const lang::Config& cfg)
      -> std::optional<std::string> {
    if (!cfg.all_done(s)) return std::nullopt;
    return "final state reached";
  };

  ExploreOptions full;
  full.stop_on_violation = false;
  const auto reference = explore::explore(sys, full, inv);
  ASSERT_FALSE(reference.violations.empty());

  for (const bool por : {false, true}) {
    ExploreOptions reduced;
    reduced.symmetry = true;
    reduced.por = por;
    reduced.stop_on_violation = false;
    const auto r = explore::explore(sys, reduced, inv);
    EXPECT_EQ(violation_keys(r), violation_keys(reference)) << "por=" << por;
  }
}

TEST(Symmetry, WitnessesFromQuotientedRunsReplay) {
  // Violation traces from a quotiented run lead to the visited
  // representative — a real execution — so every witness must replay
  // step-for-step through the FULL semantics, at every worker count and
  // with POR composed.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  for (const unsigned workers : {1U, 4U}) {
    ExploreOptions opts;
    opts.symmetry = true;
    opts.por = true;
    opts.track_traces = true;
    opts.num_threads = workers;
    opts.stop_on_violation = false;
    const auto result = explore::explore(
        sys, opts,
        [](const System& s, const lang::Config& cfg)
            -> std::optional<std::string> {
          if (!cfg.all_done(s)) return std::nullopt;
          return "final state reached";
        });
    ASSERT_FALSE(result.violations.empty()) << "workers=" << workers;
    for (const auto& v : result.violations) {
      ASSERT_TRUE(v.witness.has_value());
      const auto r = witness::replay(sys, *v.witness);
      EXPECT_TRUE(r.ok) << "workers=" << workers << ": " << r.error;
    }
  }
}

// --- checkpoint / resume under symmetry -------------------------------------

/// A temp-file path that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Symmetry, CheckpointRoundTripPreservesVerdicts) {
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  ExploreOptions full_opts;
  full_opts.symmetry = true;
  const auto full = explore::explore(sys, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_GE(full.stats.states, 4u);

  TempFile ck("symmetry_roundtrip.json");
  ExploreOptions trunc_opts = full_opts;
  trunc_opts.max_states = full.stats.states / 2;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated = explore::explore(sys, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  EXPECT_TRUE(ckpt.reduction.symmetry)
      << "the checkpoint must record the setting";

  ExploreOptions resume_opts = full_opts;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
  EXPECT_EQ(resumed.stats.blocked, full.stats.blocked);
  EXPECT_EQ(final_encodings(resumed), final_encodings(full));

  // And the whole quotiented pipeline still agrees with an unreduced run.
  const auto unreduced = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(final_encodings(resumed), final_encodings(unreduced));
}

TEST(Symmetry, ResumeRejectsMismatchedSymmetry) {
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  // Checkpoint written with symmetry ON, resumed with it OFF: the visited
  // set holds canonical representatives an unquotiented run cannot
  // interpret, so the engine must reject loudly rather than silently skip
  // states.
  {
    TempFile ck("symmetry_mismatch_on.json");
    ExploreOptions opts;
    opts.symmetry = true;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
  // And the other direction: a plain checkpoint resumed under --symmetry.
  {
    TempFile ck("symmetry_mismatch_off.json");
    ExploreOptions opts;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.symmetry = true;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
}

TEST(Symmetry, RejectedUnderSampling) {
  // Sampling replays concrete schedules and cannot quotient states; the
  // combination is rejected loudly (the CLIs catch it in resolve_strategy,
  // the engine backstops it for library users).  Reduction.RejectedCombinations
  // (test_sample.cpp) runs the same row at every library entry point.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(2, 1, 2), ticket);
  ExploreOptions opts;
  opts.symmetry = true;
  opts.mode = engine::Strategy::Sample;
  opts.sample.episodes = 4;
  EXPECT_THROW((void)explore::explore(sys, opts), std::runtime_error);
}

// --- outline checking under symmetry ----------------------------------------

TEST(Symmetry, OutlineVerdictsAgree) {
  for (const bool symmetry : {false, true}) {
    og::OutlineCheckOptions opts;
    opts.symmetry = symmetry;
    {
      const auto ex = og::make_fig3();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3 symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig3_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3-broken symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig7();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7 symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig7_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7-broken symmetry=" << symmetry;
    }
  }
}

TEST(Symmetry, OutlineObligationCountsExact) {
  // Obligations are evaluated at every orbit member, so the count — and the
  // failed-obligation set — must equal the unreduced run's exactly.
  {
    const auto ex = og::make_fig3();
    og::OutlineCheckOptions plain;
    const auto a = og::check_outline(ex.sys, ex.outline, plain);
    og::OutlineCheckOptions quotient;
    quotient.symmetry = true;
    const auto b = og::check_outline(ex.sys, ex.outline, quotient);
    EXPECT_EQ(b.obligations_checked, a.obligations_checked);
  }
  {
    const auto ex = og::make_fig3_broken();
    og::OutlineCheckOptions plain;
    plain.stop_at_first_failure = false;
    auto quotient = plain;
    quotient.symmetry = true;
    const auto a = og::check_outline(ex.sys, ex.outline, plain);
    const auto b = og::check_outline(ex.sys, ex.outline, quotient);
    EXPECT_EQ(b.obligations_checked, a.obligations_checked);
    EXPECT_EQ(b.failures.size(), a.failures.size());
  }
}

// --- refinement product quotient --------------------------------------------

TEST(Symmetry, RefinementTraceInclusionAgrees) {
  locks::AbstractLock abstract;
  locks::SeqLock good;
  locks::SeqLock broken(/*releasing_release=*/false);
  const auto abs_sys = locks::instantiate(locks::fig7_client(), abstract);
  const auto good_sys = locks::instantiate(locks::fig7_client(), good);
  const auto broken_sys = locks::instantiate(locks::fig7_client(), broken);

  refinement::TraceInclusionOptions plain;
  refinement::TraceInclusionOptions quotient;
  quotient.symmetry = true;
  const auto good_plain =
      refinement::check_trace_inclusion(abs_sys, good_sys, plain);
  const auto good_quot =
      refinement::check_trace_inclusion(abs_sys, good_sys, quotient);
  EXPECT_TRUE(good_plain.holds);
  EXPECT_TRUE(good_quot.holds);
  EXPECT_LE(good_quot.product_nodes, good_plain.product_nodes)
      << "the quotient may never grow the product";
  EXPECT_FALSE(
      refinement::check_trace_inclusion(abs_sys, broken_sys, quotient).holds)
      << "a broken implementation must still be caught under the quotient";
}

TEST(Symmetry, RefinementSymmetricClientShrinksProduct) {
  // The worker client runs identical threads (the most-general client does
  // not — it writes unique per-thread values), so both systems are
  // symmetric with equal classes and the product quotient actually fires.
  locks::AbstractLock abstract;
  locks::TicketLock ticket;
  const auto abs_sys =
      locks::instantiate(locks::worker_client(2, 1, 2), abstract);
  const auto conc_sys =
      locks::instantiate(locks::worker_client(2, 1, 2), ticket);

  refinement::TraceInclusionOptions plain;
  refinement::TraceInclusionOptions quotient;
  quotient.symmetry = true;
  const auto a = refinement::check_trace_inclusion(abs_sys, conc_sys, plain);
  const auto b =
      refinement::check_trace_inclusion(abs_sys, conc_sys, quotient);
  EXPECT_EQ(b.holds, a.holds) << "verdicts must not change";
  EXPECT_LT(b.product_nodes, a.product_nodes)
      << "a symmetric client must actually shrink the product";
}

// --- the full-corpus cross-check --------------------------------------------

TEST(SymCrosscheck, FullCorpusAgreement) {
  for (const auto& test : litmus::all_tests()) {
    expect_sym_exact(test.sys, "litmus " + test.name);
  }
  for (const auto& test : litmus::all_causality_tests()) {
    expect_sym_exact(test.sys, "causality " + test.name);
  }
  for (const auto& test : litmus::all_race_tests()) {
    expect_sym_exact(test.sys, "race " + test.name);
  }
  expect_sym_exact(litmus::peterson_counter().sys, "peterson");
  expect_sym_exact(litmus::dekker_counter().sys, "dekker");
  expect_sym_exact(litmus::barrier_exchange().sys, "barrier");
  for (const unsigned work : {1U, 2U, 4U}) {
    expect_sym_exact(litmus::mp_compute(work), "mp_compute");
    expect_sym_exact(litmus::mp_spin_compute(work), "mp_spin_compute");
  }

  const char* programs[] = {
      "lock_client_abstract.rc11", "lock_client_broken.rc11",
      "lock_client_seqlock.rc11",  "mp_broken_outline.rc11",
      "mp_stack.rc11",             "mp_verified.rc11",
      "sb.rc11",                   "ticket_lock.rc11",
      "mp_na_racy.rc11",           "mp_na_release.rc11",
      "dcl_broken.rc11",           "dcl_init.rc11",
      "flag_spin_racy.rc11",       "disjoint_na.rc11",
  };
  for (const char* name : programs) {
    const auto program = parser::parse_file(std::string(RC11_SRC_DIR) +
                                            "/tools/programs/" + name);
    expect_sym_exact(program.sys, name);
  }

  const std::vector<locks::ClientProgram> clients = {
      locks::fig7_client(),
      locks::mgc_client(2, 2),
      locks::counter_client(2, 1),
      locks::worker_client(2, 1, 2),
      locks::worker_client(3, 1, 2),
  };
  locks::AbstractLock abstract;
  locks::SeqLock seq;
  locks::TicketLock ticket;
  locks::CasSpinLock cas;
  locks::TTASLock ttas;
  locks::LockObject* lock_impls[] = {&abstract, &seq, &ticket, &cas, &ttas};
  for (const auto& client : clients) {
    for (auto* lock : lock_impls) {
      expect_sym_exact(locks::instantiate(client, *lock), lock->name());
    }
  }
}

}  // namespace
