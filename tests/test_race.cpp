// Data-race detection: classification of the known-racy / known-race-free
// corpus, canonical ordering and determinism of the reported races, witness
// replay through both access sites, and the zero-overhead guarantee for
// checkers that leave race_detection off.  That the race set is the same
// under every engine configuration (worker counts, POR, symmetry, the rf
// quotient, sampling), and every corpus verdict, are rows of the
// differential matrix (test_matrix.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "catalogue.hpp"
#include "engine/checkpoint.hpp"
#include "explore/explorer.hpp"
#include "race/race.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using catalogue::race_keys;
using lang::System;
using race::RaceOptions;

TEST(Race, ClassifiesTheCorpus) {
  // Experiment RD: per program, the races found and the states of the plain
  // checker, of the reduced one (--por --symmetry, which must report the
  // same races) and of a detection-off exploration.
  struct Expected {
    const char* name;
    std::size_t races;
    std::uint64_t plain_states, reduced_states, off_states;
  };
  const Expected expected[] = {
      {"Race-MP+na+rlx", 1, 13, 12, 10},
      {"Race-MP+na+rel+acq", 0, 12, 11, 9},
      {"Race-DCL+broken", 3, 79, 33, 79},
      {"Race-DCL+cas+rel+acq", 0, 95, 27, 81},
      {"Race-flag-spin+na", 1, 13, 12, 10},
      {"Race-disjoint+na", 0, 9, 9, 9},
      {"Race-lock+na", 0, 17, 9, 17},
      {"Race-atomic-only", 0, 14, 14, 14},
      {"Race-elected-writer+na", 2, 37, 8, 37},
  };
  const auto tests = catalogue::race_tests();
  ASSERT_EQ(tests.size(), std::size(expected));
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const auto& test = tests[i];
    const auto& want = expected[i];
    ASSERT_EQ(test.name, want.name);
    const auto result = race::check(test.sys, {});
    ASSERT_FALSE(result.truncated) << test.name;
    EXPECT_EQ(result.racy(), test.racy) << test.name << " (" << test.file << ")";
    EXPECT_EQ(result.races.size(), want.races) << test.name;
    EXPECT_EQ(result.stats.states, want.plain_states) << test.name;
    RaceOptions reduced_opts;
    reduced_opts.por = true;
    reduced_opts.symmetry = true;
    const auto reduced = race::check(test.sys, reduced_opts);
    EXPECT_EQ(reduced.stats.states, want.reduced_states) << test.name;
    EXPECT_EQ(race_keys(reduced), race_keys(result)) << test.name;
    EXPECT_EQ(explore::explore(test.sys).stats.states, want.off_states)
        << test.name;
    if (test.racy) {
      // Every report names both sites on a real location.
      for (const auto& r : result.races) {
        EXPECT_FALSE(r.location.empty()) << test.name;
        EXPECT_NE(r.record.prior.thread, r.record.current.thread) << test.name;
        EXPECT_NE(r.record.prior.pc, memsem::kNoSite) << test.name;
        EXPECT_NE(r.record.current.pc, memsem::kNoSite) << test.name;
        EXPECT_NE(r.what.find(r.location), std::string::npos) << test.name;
      }
    } else {
      EXPECT_TRUE(result.clean()) << test.name;
    }
  }
}

TEST(Race, ReportsAreUnorderedPairsInCanonicalOrder) {
  for (const auto& test : catalogue::race_tests()) {
    const auto result = race::check(test.sys, {});
    for (const auto& r : result.races) {
      const auto rank = [](const memsem::RaceAccess& a) {
        return std::make_tuple(a.thread, a.pc, static_cast<unsigned>(a.cat));
      };
      EXPECT_LE(rank(r.record.prior), rank(r.record.current))
          << test.name << ": pair not canonically ordered";
    }
  }
}

TEST(Race, DeterministicAcrossRepeatedRuns) {
  for (const auto& test : catalogue::race_tests()) {
    RaceOptions opts;
    opts.num_threads = 4;
    opts.por = true;
    const auto a = race::check(test.sys, opts);
    const auto b = race::check(test.sys, opts);
    EXPECT_EQ(race_keys(a), race_keys(b)) << test.name;
    ASSERT_EQ(a.races.size(), b.races.size()) << test.name;
    for (std::size_t i = 0; i < a.races.size(); ++i) {
      EXPECT_EQ(a.races[i].what, b.races[i].what) << test.name;
    }
  }
}

TEST(Race, WitnessesReplayThroughBothSites) {
  for (const auto& test : catalogue::race_tests()) {
    if (!test.racy) continue;
    // Race witnesses digest the race-instrumented encoding; replay needs a
    // system carrying the flag (the rc11-race CLI does the same).
    System traced = test.sys;
    auto sem = traced.options();
    sem.race_detection = true;
    traced.set_options(sem);

    for (const bool symmetry : {false, true}) {
      RaceOptions opts;
      opts.track_traces = true;
      opts.symmetry = symmetry;
      const auto result = race::check(test.sys, opts);
      ASSERT_TRUE(result.racy()) << test.name;
      bool witnessed = false;
      for (const auto& r : result.races) {
        if (!r.witness) continue;
        witnessed = true;
        EXPECT_EQ(r.witness->kind, "race") << test.name;
        EXPECT_FALSE(r.witness->steps.empty()) << test.name;
        const auto replay = witness::replay(traced, *r.witness);
        EXPECT_TRUE(replay.ok)
            << test.name << " (symmetry " << symmetry << "): " << replay.error;
      }
      EXPECT_TRUE(witnessed)
          << test.name << ": no race carries a witness (symmetry " << symmetry
          << ")";
      // Serialisation round-trip keeps the witness replayable.
      for (const auto& r : result.races) {
        if (!r.witness) continue;
        const auto back = witness::from_json(witness::to_json(*r.witness));
        EXPECT_TRUE(witness::replay(traced, back).ok) << test.name;
        break;
      }
    }
  }
}

TEST(Race, StopOnRaceStopsEarlyButStaysRacy) {
  const auto test = catalogue::find(catalogue::race_tests(), "Race-DCL+broken");
  RaceOptions opts;
  opts.stop_on_race = true;
  const auto result = race::check(test.sys, opts);
  EXPECT_TRUE(result.racy());
  // Stopping was our choice, not a budget: the verdict is still definite.
  EXPECT_EQ(result.stop, engine::StopReason::Complete);
  const auto full = race::check(test.sys, {});
  EXPECT_LE(result.stats.states, full.stats.states);
}

TEST(Race, SampleRejectsCheckpointAndResume) {
  const auto test = catalogue::find(catalogue::race_tests(), "Race-MP+na+rlx");
  RaceOptions opts;
  opts.mode = engine::Strategy::Sample;
  opts.checkpoint_path = "/tmp/never-written.ckpt";
  EXPECT_THROW((void)race::check(test.sys, opts), std::exception);
  RaceOptions opts2;
  opts2.mode = engine::Strategy::Sample;
  engine::Checkpoint ckpt;
  opts2.resume = &ckpt;
  EXPECT_THROW((void)race::check(test.sys, opts2), std::exception);
}

TEST(Race, ZeroOverheadWhenDetectionOff) {
  // Non-race checkers never pay for the clocks: with the flag off (the
  // default) the state encoding has no clock words and no records are kept.
  const auto test = catalogue::find(catalogue::race_tests(), "Race-MP+na+rlx");
  EXPECT_FALSE(test.sys.options().race_detection);
  const auto plain = lang::initial_config(test.sys);
  EXPECT_TRUE(plain.mem.race_records().empty());

  System traced = test.sys;
  auto sem = traced.options();
  sem.race_detection = true;
  traced.set_options(sem);
  const auto instrumented = lang::initial_config(traced);
  EXPECT_LT(plain.encode().size(), instrumented.encode().size())
      << "the instrumented encoding must carry extra clock words";

  // And exploration of the racy program is oblivious to races by default:
  // same reachable-state count as the instrumented run (clocks never split
  // states here — they are a function of the sync structure) and no
  // records surface anywhere the explorer looks.
  const auto r = explore::explore(test.sys, {});
  EXPECT_FALSE(r.truncated);
}

TEST(Race, TruncatedRunIsInconclusiveNotClean) {
  const auto test = catalogue::find(catalogue::race_tests(), "Race-DCL+broken");
  RaceOptions opts;
  opts.max_states = 3;
  const auto result = race::check(test.sys, opts);
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.clean());
}

}  // namespace
