// Partial-order reduction: soundness, exactness and the reduction headline.
//
// The tests check that POR preserves everything it promises to preserve —
// final-configuration sets, litmus outcome sets, outline and refinement
// verdicts, witness replayability — on representative systems, at one
// worker and at four, and that it actually reduces the targeted benchmark
// families by >= 2x.
//
// PorCrosscheck widens the comparison to the complete corpus: every program
// under tools/programs/ small enough to explore exhaustively (the litmus,
// causality and race catalogues included), every case study and every
// lock-implementation/client pairing, each checked for exact final-state
// agreement between the reduced and full explorations.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "explore/explorer.hpp"
#include "litmus/case_studies.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/catalog.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "small_programs.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
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

/// Full vs. reduced exploration of `sys` must agree on the final-state set,
/// the blocked count (deadlocks) and truncation, at every worker count.
void expect_por_exact(const System& sys, const std::string& what) {
  ExploreOptions full;
  const auto reference = explore::explore(sys, full);
  for (const unsigned workers : {1U, 4U}) {
    ExploreOptions reduced;
    reduced.por = true;
    reduced.num_threads = workers;
    const auto r = explore::explore(sys, reduced);
    EXPECT_EQ(final_encodings(r), final_encodings(reference))
        << what << " (threads " << workers << "): final-state sets differ";
    EXPECT_EQ(r.stats.blocked, reference.stats.blocked)
        << what << " (threads " << workers << "): blocked counts differ";
    EXPECT_EQ(r.truncated, reference.truncated) << what;
    EXPECT_LE(r.stats.states, reference.stats.states)
        << what << ": a reduction may never visit MORE states";
  }
}

TEST(Por, LitmusOutcomeSetsExact) {
  for (const auto& test : catalogue::litmus_tests()) {
    expect_por_exact(test.sys, test.name);
    // The outcome set is the litmus verdict itself: with POR on it must
    // still equal the allowed set exactly.
    ExploreOptions reduced;
    reduced.por = true;
    const auto result = explore::explore(test.sys, reduced);
    EXPECT_EQ(explore::final_register_values(test.sys, result, test.observed),
              test.allowed)
        << test.name << " outcome set changed under POR";
  }
}

TEST(Por, CausalityTestsExact) {
  for (const auto& test : catalogue::causality_tests()) {
    expect_por_exact(test.sys, test.name);
  }
}

TEST(Por, CaseStudiesExact) {
  expect_por_exact(litmus::peterson_counter().sys, "peterson");
  expect_por_exact(litmus::dekker_counter().sys, "dekker");
  expect_por_exact(litmus::barrier_exchange().sys, "barrier");
}

TEST(Por, ComputeWorkloadsExact) {
  for (const unsigned work : {1U, 3U}) {
    expect_por_exact(testgen::mp_compute(work),
                     "mp_compute(" + std::to_string(work) + ")");
    expect_por_exact(testgen::mp_spin_compute(work),
                     "mp_spin_compute(" + std::to_string(work) + ")");
  }
  locks::TicketLock ticket;
  expect_por_exact(locks::instantiate(locks::worker_client(2, 1, 3), ticket),
                   "ticket worker(2,1,3)");
}

TEST(Por, OutlineVerdictsAgree) {
  for (const bool por : {false, true}) {
    og::OutlineCheckOptions opts;
    opts.por = por;
    {
      const auto ex = og::make_fig3();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3 por=" << por;
    }
    {
      const auto ex = og::make_fig3_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3-broken por=" << por;
    }
    {
      const auto ex = og::make_fig7();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7 por=" << por;
    }
    {
      const auto ex = og::make_fig7_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7-broken por=" << por;
    }
  }
}

TEST(Por, RefinementVerdictsAgree) {
  locks::AbstractLock abstract;
  locks::SeqLock good;
  locks::SeqLock broken(/*releasing_release=*/false);
  const auto abs_sys = locks::instantiate(locks::fig7_client(), abstract);
  const auto good_sys = locks::instantiate(locks::fig7_client(), good);
  const auto broken_sys = locks::instantiate(locks::fig7_client(), broken);

  for (const bool por : {false, true}) {
    refinement::SimulationOptions sim;
    sim.por = por;
    refinement::TraceInclusionOptions tr;
    tr.por = por;
    EXPECT_TRUE(
        refinement::check_forward_simulation(abs_sys, good_sys, sim).holds)
        << "por=" << por;
    EXPECT_TRUE(refinement::check_trace_inclusion(abs_sys, good_sys, tr).holds)
        << "por=" << por;
    EXPECT_FALSE(
        refinement::check_trace_inclusion(abs_sys, broken_sys, tr).holds)
        << "por=" << por;
  }
}

TEST(Por, WitnessesFromReducedRunsReplay) {
  // An invariant that fails somewhere in the middle of the ticket-lock
  // counter run; the reduced exploration must still produce a witness that
  // replays step-for-step through the FULL semantics.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::counter_client(2, 1), ticket);

  for (const unsigned workers : {1U, 4U}) {
    ExploreOptions opts;
    opts.por = true;
    opts.track_traces = true;
    opts.num_threads = workers;
    opts.stop_on_violation = false;
    const auto result = explore::explore(
        sys, opts,
        [](const System& s, const lang::Config& cfg)
            -> std::optional<std::string> {
          // Violated at every complete run: POR keeps all final states, so
          // witnesses exist and must replay through the full semantics.
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

TEST(Por, ReductionHeadlineOnTargetFamilies) {
  // Experiment F7: the ticket-lock and message-passing families with POR
  // off and on.  The exact sizes pin both paths; the targeted families
  // shrink by >= 2x in visited states, the two controls (almost no local
  // steps) need not, and every final configuration is kept.
  struct Case {
    const char* name;
    System sys;
    bool targeted;
    std::uint64_t full_states, full_transitions;
    std::uint64_t por_states, por_transitions, por_chained;
  };
  locks::TicketLock lock;
  const Case cases[] = {
      {"ticket_worker_2x2w4",
       locks::instantiate(locks::worker_client(2, 2, 4), lock), true, 515,
       954, 239, 450, 304},
      {"ticket_worker_3x1w3",
       locks::instantiate(locks::worker_client(3, 1, 3), lock), true, 739,
       1848, 364, 903, 387},
      {"ticket_mgc_2x2", locks::instantiate(locks::mgc_client(2, 2), lock),
       false, 331, 618, 239, 450, 120},
      {"mp_compute_w4", testgen::mp_compute(4), true, 65, 105, 14, 18, 27},
      {"mp_spin_w3", testgen::mp_spin_compute(3), true, 18, 28, 9, 13, 6},
      {"mp_litmus",
       parser::parse_file(catalogue::program_path("mp_rel_acq.rc11")).sys,
       false, 13, 17, 13, 17,
       0},
  };
  for (const auto& c : cases) {
    ExploreOptions por;
    por.por = true;
    const auto full = explore::explore(c.sys);
    const auto reduced = explore::explore(c.sys, por);
    EXPECT_EQ(full.stats.states, c.full_states) << c.name;
    EXPECT_EQ(full.stats.transitions, c.full_transitions) << c.name;
    EXPECT_EQ(reduced.stats.states, c.por_states) << c.name;
    EXPECT_EQ(reduced.stats.transitions, c.por_transitions) << c.name;
    EXPECT_EQ(reduced.stats.por_chained, c.por_chained) << c.name;
    EXPECT_EQ(final_encodings(reduced), final_encodings(full)) << c.name;
    if (c.targeted) {
      EXPECT_GE(static_cast<double>(full.stats.states),
                2.0 * static_cast<double>(reduced.stats.states))
          << c.name;
    }
  }
}

TEST(Por, ReducedGraphIdenticalAcrossWorkerCounts) {
  const auto sys = testgen::mp_spin_compute(2);
  ExploreOptions base;
  base.por = true;
  const auto reference = explore::explore(sys, base);
  for (const unsigned workers : {2U, 8U}) {
    ExploreOptions opts;
    opts.por = true;
    opts.num_threads = workers;
    const auto r = explore::explore(sys, opts);
    EXPECT_EQ(r.stats.states, reference.stats.states) << workers;
    EXPECT_EQ(final_encodings(r), final_encodings(reference)) << workers;
  }
}

// --- the full-corpus cross-check --------------------------------------------

TEST(PorCrosscheck, FullCorpusAgreement) {
  // Every corpus program, every case study, the compute family, every
  // lock implementation under every client.
  for (const auto& name : catalogue::crosscheck_corpus()) {
    expect_por_exact(
        parser::parse_file(catalogue::program_path(name)).sys, name);
  }
  expect_por_exact(litmus::peterson_counter().sys, "peterson");
  expect_por_exact(litmus::dekker_counter().sys, "dekker");
  expect_por_exact(litmus::barrier_exchange().sys, "barrier");
  for (const unsigned work : {1U, 2U, 4U}) {
    expect_por_exact(testgen::mp_compute(work), "mp_compute");
    expect_por_exact(testgen::mp_spin_compute(work), "mp_spin_compute");
  }

  const std::vector<locks::ClientProgram> clients = {
      locks::fig7_client(),
      locks::mgc_client(2, 2),
      locks::counter_client(2, 1),
      locks::worker_client(2, 1, 2),
  };
  locks::AbstractLock abstract;
  locks::SeqLock seq;
  locks::TicketLock ticket;
  locks::CasSpinLock cas;
  locks::TTASLock ttas;
  locks::LockObject* lock_impls[] = {&abstract, &seq, &ticket, &cas, &ttas};
  for (const auto& client : clients) {
    for (auto* lock : lock_impls) {
      expect_por_exact(locks::instantiate(client, *lock), lock->name());
    }
  }
}

}  // namespace
