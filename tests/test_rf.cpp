// Execution-graph quotient (--rf-quotient): soundness, exactness and the
// reduction headline (see engine/abstraction.hpp for the key construction
// and DESIGN.md for the bisimulation argument).
//
// The tests check that the quotient preserves everything it promises to
// preserve — litmus outcome sets, invariant-violation sets,
// outline verdicts and failed-obligation sets, race sets, witness
// replayability, checkpoint round-trips — on representative systems, at one
// worker and at four, composed with POR, and that it actually reduces the
// store-heavy asymmetric workloads it targets.  Exactness is judged on
// *semantic* observables (outcome sets, verdicts, violation/race keys): the
// quotient keeps one concrete representative per merged class, so raw
// final-configuration encodings are expected to differ from an unreduced
// run by design.
//
// RfCrosscheck widens the comparison to the complete corpus: every litmus
// test, every causality test, every race test, every case study, every
// sample program and every lock-implementation/client pairing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/checkpoint.hpp"
#include "explore/explorer.hpp"
#include "litmus/case_studies.hpp"
#include "litmus/litmus.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "memsem/state.hpp"
#include "og/catalog.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using engine::StopReason;
using explore::ExploreOptions;
using lang::System;

/// All registers of every thread — the full outcome tuple, the semantic
/// observable the quotient must preserve exactly.
std::vector<lang::Reg> all_regs(const System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

std::vector<std::vector<lang::Value>> outcome_set(
    const System& sys, const explore::ExploreResult& result) {
  return explore::final_register_values(sys, result, all_regs(sys));
}

/// The deduplicated `what` set of a violation report.  Under the quotient a
/// class of violating states is visited once, so per-state multiplicity and
/// state dumps are representative-dependent; the *set* of violation
/// messages is not.
std::set<std::string> violation_whats(const explore::ExploreResult& result) {
  std::set<std::string> keys;
  for (const auto& v : result.violations) keys.insert(v.what);
  return keys;
}

std::set<std::string> race_whats(const race::RaceResult& result) {
  std::set<std::string> keys;
  for (const auto& r : result.races) keys.insert(r.what);
  return keys;
}

/// Full vs. quotiented exploration of `sys` must agree on the final
/// register-outcome set, deadlock existence and truncation, at every worker
/// count and with POR layered on top.  The quotient may never visit MORE
/// states.
void expect_rf_exact(const System& sys, const std::string& what) {
  ExploreOptions full;
  const auto reference = explore::explore(sys, full);
  const auto ref_outcomes = outcome_set(sys, reference);
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1U, 4U}) {
      ExploreOptions reduced;
      reduced.rf_quotient = true;
      reduced.por = por;
      reduced.num_threads = workers;
      const auto r = explore::explore(sys, reduced);
      EXPECT_EQ(outcome_set(sys, r), ref_outcomes)
          << what << " (threads " << workers << ", por " << por
          << "): outcome sets differ";
      EXPECT_EQ(r.stats.blocked == 0, reference.stats.blocked == 0)
          << what << " (threads " << workers << ", por " << por
          << "): deadlock existence differs";
      EXPECT_EQ(r.truncated, reference.truncated) << what;
      EXPECT_LE(r.stats.states, reference.stats.states)
          << what << ": a reduction may never visit MORE states";
    }
  }
}

System parse_program(const std::string& name) {
  return parser::parse_file(std::string(RC11_SRC_DIR) + "/tools/programs/" +
                            name)
      .sys;
}

TEST(Rf, LitmusOutcomeSetsExact) {
  for (const auto& test : litmus::all_tests()) {
    expect_rf_exact(test.sys, test.name);
    // The outcome set is the litmus verdict itself: with the quotient on it
    // must still equal the allowed set exactly.
    ExploreOptions reduced;
    reduced.rf_quotient = true;
    const auto result = explore::explore(test.sys, reduced);
    EXPECT_EQ(explore::final_register_values(test.sys, result, test.observed),
              test.allowed)
        << test.name << " outcome set changed under the rf quotient";
  }
}

TEST(Rf, CaseStudiesExact) {
  expect_rf_exact(litmus::peterson_counter().sys, "peterson");
  expect_rf_exact(litmus::dekker_counter().sys, "dekker");
  expect_rf_exact(litmus::barrier_exchange().sys, "barrier");
}

TEST(Rf, StoreFanReducedAndExact) {
  // The motivating family: asymmetric writers whose observations of the
  // pump's generation variable survive only in dead view metadata.  The
  // quotient must agree on the outcome set and beat the better of the two
  // older reductions by >= 5x visited states (the bench asserts the same
  // headline on its programmatic twins).
  const auto sys = parse_program("store_fan.rc11");
  expect_rf_exact(sys, "store_fan");

  ExploreOptions por_opts;
  por_opts.por = true;
  ExploreOptions sym_opts;
  sym_opts.symmetry = true;
  ExploreOptions rf_opts;
  rf_opts.rf_quotient = true;
  const auto por_res = explore::explore(sys, por_opts);
  const auto sym_res = explore::explore(sys, sym_opts);
  const auto rf_res = explore::explore(sys, rf_opts);
  EXPECT_EQ(sym_res.stats.symmetry_hits, 0u)
      << "store_fan is asymmetric by design; symmetry must be a no-op";
  const auto best = std::min(por_res.stats.states, sym_res.stats.states);
  EXPECT_GE(static_cast<double>(best) /
                static_cast<double>(rf_res.stats.states),
            5.0)
      << "rf quotient must beat best-of(por " << por_res.stats.states
      << ", sym " << sym_res.stats.states << ") by >= 5x, got "
      << rf_res.stats.states << " states";
}

TEST(Rf, NoopOnReleaseHeavyPrograms) {
  // Every store of the MP litmus is releasing, so every mview is live and
  // every view exportable: the quotient key carries the same information as
  // the concrete encoding and the state count must not move (sleep sets
  // prune transitions, never states).
  const auto sys = litmus::mp_release_acquire().sys;
  const auto reference = explore::explore(sys, ExploreOptions{});
  ExploreOptions reduced;
  reduced.rf_quotient = true;
  const auto r = explore::explore(sys, reduced);
  EXPECT_EQ(r.stats.states, reference.stats.states);
  EXPECT_EQ(r.stats.blocked, reference.stats.blocked);
  EXPECT_EQ(outcome_set(sys, r), outcome_set(sys, reference));
}

TEST(Rf, InvariantViolationSetsExact) {
  // The invariant below has an empty view footprint (it reads pcs only), so
  // no pins are needed; its violation set must match the unreduced run's as
  // a message set (per-class multiplicity differs by design).
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
    reduced.rf_quotient = true;
    reduced.por = por;
    reduced.stop_on_violation = false;
    const auto r = explore::explore(sys, reduced, inv);
    EXPECT_EQ(violation_whats(r), violation_whats(reference)) << "por=" << por;
  }
}

TEST(Rf, WitnessesFromQuotientedRunsReplay) {
  // The trace sink stores concrete states even under the quotient, so every
  // recorded violation trace is a real execution and must replay
  // step-for-step through the FULL semantics, at every worker count.
  const auto sys = parse_program("store_fan.rc11");
  for (const unsigned workers : {1U, 4U}) {
    ExploreOptions opts;
    opts.rf_quotient = true;
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

TEST(Rf, TracedRunsCountMerges) {
  // With a trace sink attached the engine can tell concrete-new arrivals
  // apart, so a workload built to merge must report rf_merges > 0 (the
  // counter documents 0 without traces — see engine/reach.hpp).
  const auto sys = parse_program("store_fan.rc11");
  ExploreOptions opts;
  opts.rf_quotient = true;
  opts.track_traces = true;
  const auto r = explore::explore(sys, opts);
  EXPECT_GT(r.stats.rf_merges, 0u);
}

// --- checkpoint / resume under the quotient ---------------------------------

/// A temp-file path that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Rf, CheckpointRoundTripPreservesVerdicts) {
  const auto sys = parse_program("store_fan.rc11");

  ExploreOptions full_opts;
  full_opts.rf_quotient = true;
  const auto full = explore::explore(sys, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_GE(full.stats.states, 4u);

  TempFile ck("rf_roundtrip.json");
  ExploreOptions trunc_opts = full_opts;
  trunc_opts.max_states = full.stats.states / 2;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated = explore::explore(sys, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  EXPECT_TRUE(ckpt.reduction.rf_quotient)
      << "the checkpoint must record the setting";

  ExploreOptions resume_opts = full_opts;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(outcome_set(sys, resumed), outcome_set(sys, full));

  // And the whole quotiented pipeline still agrees with an unreduced run.
  const auto unreduced = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(outcome_set(sys, resumed), outcome_set(sys, unreduced));
}

TEST(Rf, ResumeRejectsMismatchedRfQuotient) {
  const auto sys = parse_program("store_fan.rc11");

  // Checkpoint written with the quotient ON, resumed with it OFF: the
  // visited set holds quotient keys an unquotiented run cannot interpret,
  // so the engine must reject loudly rather than silently skip states.
  {
    TempFile ck("rf_mismatch_on.json");
    ExploreOptions opts;
    opts.rf_quotient = true;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
  // And the other direction: a plain checkpoint resumed under the quotient.
  {
    TempFile ck("rf_mismatch_off.json");
    ExploreOptions opts;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.rf_quotient = true;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
}

// --- rejected combinations ---------------------------------------------------
// Reduction.RejectedCombinations (test_sample.cpp) runs these rows at every
// library entry point; these pin the explorer's own backstop.

TEST(Rf, RejectedUnderSampling) {
  const auto sys = litmus::mp_release_acquire().sys;
  ExploreOptions opts;
  opts.rf_quotient = true;
  opts.mode = engine::Strategy::Sample;
  opts.sample.episodes = 4;
  EXPECT_THROW((void)explore::explore(sys, opts), std::runtime_error);
}

TEST(Rf, RejectedWithSymmetry) {
  // v1 restriction: sleep masks cannot be transported through both
  // quotients at once, so the combination is rejected loudly (the CLIs
  // catch it in resolve_strategy, the engine backstops it here).
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(2, 1, 2), ticket);
  ExploreOptions opts;
  opts.rf_quotient = true;
  opts.symmetry = true;
  EXPECT_THROW((void)explore::explore(sys, opts), std::runtime_error);
}

TEST(Rf, RejectedUnderSC) {
  // Under SC every access synchronises, so the quotient's view projection
  // would drop observable state; the engine must refuse.
  auto sys = litmus::mp_release_acquire().sys;
  auto sem = sys.options();
  sem.model = memsem::MemoryModel::SC;
  sys.set_options(sem);
  ExploreOptions opts;
  opts.rf_quotient = true;
  EXPECT_THROW((void)explore::explore(sys, opts), std::runtime_error);
}

// --- outline checking under the quotient ------------------------------------

TEST(Rf, OutlineVerdictsAgree) {
  for (const bool rf : {false, true}) {
    og::OutlineCheckOptions opts;
    opts.rf_quotient = rf;
    {
      const auto ex = og::make_fig3();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3 rf=" << rf;
    }
    {
      const auto ex = og::make_fig3_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3-broken rf=" << rf;
    }
    {
      const auto ex = og::make_fig7();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7 rf=" << rf;
    }
    {
      const auto ex = og::make_fig7_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7-broken rf=" << rf;
    }
  }
}

TEST(Rf, OutlineFailedObligationSetsExact) {
  // Every annotation footprint is pinned into the key, so each obligation
  // is class-invariant: the deduplicated failed-obligation set must equal
  // the unreduced run's (per-state multiplicity shrinks with the visited
  // set).
  const auto ex = og::make_fig3_broken();
  og::OutlineCheckOptions plain;
  plain.stop_at_first_failure = false;
  auto quotient = plain;
  quotient.rf_quotient = true;
  const auto a = og::check_outline(ex.sys, ex.outline, plain);
  const auto b = og::check_outline(ex.sys, ex.outline, quotient);
  std::set<std::string> a_set, b_set;
  for (const auto& f : a.failures) a_set.insert(f.obligation);
  for (const auto& f : b.failures) b_set.insert(f.obligation);
  EXPECT_EQ(b_set, a_set);
  EXPECT_LE(b.obligations_checked, a.obligations_checked)
      << "obligation count shrinks with the visited set, never grows";
}

// --- race detection under the quotient --------------------------------------

TEST(Rf, RaceSetsExact) {
  // Race clocks and summary cells ride inside the quotient key whenever
  // race detection is on, so the canonical race set needs no pinning to
  // stay exact — racy programs report the identical set, clean programs
  // stay clean.
  for (const auto& test : litmus::all_race_tests()) {
    race::RaceOptions plain;
    const auto a = race::check(test.sys, plain);
    race::RaceOptions quotient;
    quotient.rf_quotient = true;
    const auto b = race::check(test.sys, quotient);
    EXPECT_EQ(b.racy(), test.racy) << test.name;
    EXPECT_EQ(race_whats(b), race_whats(a)) << test.name;
    EXPECT_LE(b.stats.states, a.stats.states) << test.name;
  }
}

// --- the full-corpus cross-check --------------------------------------------

TEST(RfCrosscheck, FullCorpusAgreement) {
  for (const auto& test : litmus::all_tests()) {
    expect_rf_exact(test.sys, "litmus " + test.name);
  }
  for (const auto& test : litmus::all_causality_tests()) {
    expect_rf_exact(test.sys, "causality " + test.name);
  }
  for (const auto& test : litmus::all_race_tests()) {
    expect_rf_exact(test.sys, "race " + test.name);
    race::RaceOptions plain;
    race::RaceOptions quotient;
    quotient.rf_quotient = true;
    EXPECT_EQ(race_whats(race::check(test.sys, quotient)),
              race_whats(race::check(test.sys, plain)))
        << "race set changed under the rf quotient: " << test.name;
  }
  expect_rf_exact(litmus::peterson_counter().sys, "peterson");
  expect_rf_exact(litmus::dekker_counter().sys, "dekker");
  expect_rf_exact(litmus::barrier_exchange().sys, "barrier");
  for (const unsigned work : {1U, 2U, 4U}) {
    expect_rf_exact(litmus::mp_compute(work), "mp_compute");
    expect_rf_exact(litmus::mp_spin_compute(work), "mp_spin_compute");
  }

  const char* programs[] = {
      "lock_client_abstract.rc11", "lock_client_broken.rc11",
      "lock_client_seqlock.rc11",  "mp_broken_outline.rc11",
      "mp_stack.rc11",             "mp_verified.rc11",
      "sb.rc11",                   "ticket_lock.rc11",
      "mp_na_racy.rc11",           "mp_na_release.rc11",
      "dcl_broken.rc11",           "dcl_init.rc11",
      "flag_spin_racy.rc11",       "disjoint_na.rc11",
      "store_fan.rc11",
  };
  for (const char* name : programs) {
    expect_rf_exact(parse_program(name), name);
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
      expect_rf_exact(locks::instantiate(client, *lock), lock->name());
    }
  }
}

}  // namespace
