// Partial-order reduction: soundness and the reduction headline.
//
// The tests check that POR preserves outline and refinement verdicts and
// witness replayability on representative systems, at one worker and at
// four, and that it actually reduces the targeted benchmark families by
// >= 2x.  Its final-set exactness on the corpus, the case studies, the
// compute family and the lock clients is checked by the por rows of the
// differential matrix (test_matrix.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/catalog.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "small_programs.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using catalogue::final_encodings;
using explore::ExploreOptions;
using lang::System;

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

}  // namespace
