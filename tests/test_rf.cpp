// Execution-graph quotient (--rf-quotient): soundness, exactness and the
// reduction headline (see engine/abstraction.hpp for the key construction
// and DESIGN.md for the bisimulation argument).
//
// The tests check that the quotient preserves what the differential matrix
// (test_matrix.cpp, whose rf rows check outcome sets on every input) does
// not cover — invariant-violation sets, outline verdicts and
// failed-obligation sets, race sets, witness replayability, checkpoint
// round-trips — on representative systems, composed with POR, and that it
// actually reduces the store-heavy asymmetric workloads it targets.
// Exactness is judged on *semantic* observables (outcome sets, verdicts,
// violation/race keys): the quotient keeps one concrete representative per
// merged class, so raw final-configuration encodings are expected to differ
// from an unreduced run by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalogue.hpp"
#include "engine/checkpoint.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "matrix.hpp"
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

/// Experiment RF's exact sizes: a --por, a --symmetry and an --rf-quotient
/// run of one program, and the quotient run's sleep-set skips.
struct RfCounts {
  std::uint64_t por_states, por_transitions;
  std::uint64_t sym_states, sym_transitions;
  std::uint64_t rf_states, rf_transitions, sleep_skips;
};

/// Runs the three reductions on `sys`, checks their sizes against `want`
/// and that the quotient keeps the --por run's outcome set, and returns the
/// quotient's reduction over best-of(--por, --symmetry).
double expect_rf_counts(const System& sys, const RfCounts& want,
                        const std::string& what) {
  ExploreOptions por_opts;
  por_opts.por = true;
  ExploreOptions sym_opts;
  sym_opts.symmetry = true;
  ExploreOptions rf_opts;
  rf_opts.rf_quotient = true;
  const auto por = explore::explore(sys, por_opts);
  const auto sym = explore::explore(sys, sym_opts);
  const auto rf = explore::explore(sys, rf_opts);
  EXPECT_EQ(por.stats.states, want.por_states) << what;
  EXPECT_EQ(por.stats.transitions, want.por_transitions) << what;
  EXPECT_EQ(sym.stats.states, want.sym_states) << what;
  EXPECT_EQ(sym.stats.transitions, want.sym_transitions) << what;
  EXPECT_EQ(rf.stats.states, want.rf_states) << what;
  EXPECT_EQ(rf.stats.transitions, want.rf_transitions) << what;
  EXPECT_EQ(rf.stats.sleep_set_skips, want.sleep_skips) << what;
  EXPECT_EQ(sym.stats.symmetry_hits, 0u)
      << what << " is asymmetric by design; symmetry must be a no-op";
  EXPECT_EQ(matrix::outcomes(sys, rf), matrix::outcomes(sys, por)) << what;
  return static_cast<double>(std::min(por.stats.states, sym.stats.states)) /
         static_cast<double>(rf.stats.states);
}

/// Two asymmetric writers interleaving observe-g / scrub / publish rounds
/// (3 vs 2 rounds) and a generation pump reading the published locations:
/// every publish snapshots a fresh dead view of g, so the concrete variant
/// count is exponential in the round count.
System view_churn(unsigned pump_stores) {
  System sys;
  const auto g = sys.client_var("g", 0);
  const auto x = sys.client_var("x", 0);
  const auto y = sys.client_var("y", 0);
  for (const auto& [loc, rounds] : {std::pair{x, 3u}, {y, 2u}}) {
    auto tb = sys.thread();
    const auto t = tb.reg("t");
    for (unsigned i = 1; i <= rounds; ++i) {
      tb.load(t, g);
      tb.assign(t, lang::c(0));
      tb.store(loc, lang::c(static_cast<lang::Value>(i)));
    }
  }
  auto pump = sys.thread();
  const auto r = pump.reg("r");
  for (unsigned i = 1; i <= pump_stores; ++i) {
    pump.store(g, lang::c(static_cast<lang::Value>(i)));
  }
  pump.load(r, x);
  pump.load(r, y);
  return sys;
}

System parse_program(const std::string& name) {
  return parser::parse_file(catalogue::program_path(name)).sys;
}

TEST(Rf, StoreFanReducedAndExact) {
  // The motivating family: asymmetric writers whose observations of the
  // pump's generation variable survive only in dead view metadata.  The
  // quotient must agree on the outcome set and beat the better of the two
  // older reductions by >= 5x visited states.
  const matrix::Input input{"store_fan", matrix::kUnlisted,
                            parse_program("store_fan.rc11")};
  matrix::Reference reference(input);
  for (const auto& row : matrix::rows()) {
    if (row.agree == matrix::Agree::Outcomes) {
      matrix::check(row, input, reference);
    }
  }
  const auto& sys = input.sys;
  EXPECT_GE(expect_rf_counts(sys,
                             {58633, 185322, 109678, 361352, 4812, 22791,
                              14376},
                             "store_fan"),
            5.0);
}

TEST(Rf, ViewChurnReducedAndExact) {
  const auto sys = view_churn(4);
  EXPECT_GE(expect_rf_counts(sys,
                             {51889, 135982, 105709, 285537, 5242, 21842,
                              10124},
                             "view_churn"),
            5.0);
}

TEST(Rf, NoopOnReleaseHeavyPrograms) {
  // Every store of the MP litmus is releasing, so every mview is live and
  // every view exportable: the quotient key carries the same information as
  // the concrete encoding and the state count must not move (sleep sets
  // prune transitions, never states).
  const auto sys = parse_program("mp_rel_acq.rc11");
  const auto reference = explore::explore(sys, ExploreOptions{});
  ExploreOptions reduced;
  reduced.rf_quotient = true;
  const auto r = explore::explore(sys, reduced);
  EXPECT_EQ(r.stats.states, reference.stats.states);
  EXPECT_EQ(r.stats.blocked, reference.stats.blocked);
  EXPECT_EQ(matrix::outcomes(sys, r), matrix::outcomes(sys, reference));
  EXPECT_EQ(expect_rf_counts(sys, {13, 17, 13, 17, 13, 17, 0}, "mp"), 1.0);
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
  EXPECT_EQ(matrix::outcomes(sys, resumed), matrix::outcomes(sys, full));

  // And the whole quotiented pipeline still agrees with an unreduced run.
  const auto unreduced = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(matrix::outcomes(sys, resumed), matrix::outcomes(sys, unreduced));
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
  const auto sys = parse_program("mp_rel_acq.rc11");
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
  auto sys = parse_program("mp_rel_acq.rc11");
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
  for (const auto& test : catalogue::race_tests()) {
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

}  // namespace
