// Exhaustive small-program property testing ("litmus fuzzing"): enumerate
// *every* two-thread program over a small instruction vocabulary and check,
// for each one, the engine's metatheory:
//
//   P1  every reachable state satisfies the structural invariants
//       (memsem::validate) and every transition moves views forward;
//   P2  the SC baseline's outcome set is a subset of the RC11 RAR one
//       (weakening the model never removes behaviours);
//   P3  outcome sets are invariant under the timestamp-encoding ablation
//       (canonicalisation is a pure quotient);
//   P4  the execution-graph quotient (--rf-quotient) is differential-exact:
//       outcome sets, deadlock existence and race sets agree with the
//       unreduced run on every generated program, and the quotient never
//       visits more states.
//
// The vocabulary is chosen so every Fig. 5 rule is hit in every combination:
// relaxed/releasing stores and relaxed/acquiring loads over two variables in
// the main sweep (1024 programs), a smaller RMW sweep mixing CAS and FAI
// with stores and loads, and a deeper three-instruction mirrored sweep —
// ~1.4k programs, each checked under four semantics configurations.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "explore/explorer.hpp"
#include "lang/config.hpp"
#include "memsem/validate.hpp"
#include "race/race.hpp"
#include "small_programs.hpp"

namespace {

using namespace rc11;
using lang::Config;
using lang::System;
using testgen::build;
using testgen::core_vocab;
using testgen::Generated;
using testgen::Vocab;

/// Runs all four property checks on one generated program.
void check_program(const Generated& g) {
  // P1: invariants at every reachable state + monotone views per transition.
  const auto inv_result = explore::explore(
      g.sys, {},
      [](const System& sys, const Config& cfg) -> std::optional<std::string> {
        if (auto err = memsem::validate(cfg.mem)) return err;
        for (const auto& step : lang::successors(sys, cfg)) {
          if (auto err =
                  memsem::validate_view_monotone(cfg.mem, step.after.mem)) {
            return err;
          }
        }
        return std::nullopt;
      });
  ASSERT_TRUE(inv_result.violations.empty())
      << g.description << ": " << inv_result.violations[0].what;

  const auto rc11_outcomes =
      explore::final_register_values(g.sys, inv_result, g.regs);

  // P2: SC ⊆ RC11.
  {
    auto sc_sys = g.sys;
    memsem::SemanticsOptions opts;
    opts.model = memsem::MemoryModel::SC;
    sc_sys.set_options(opts);
    const auto sc_outcomes = explore::final_register_values(
        sc_sys, explore::explore(sc_sys), g.regs);
    for (const auto& o : sc_outcomes) {
      ASSERT_TRUE(std::find(rc11_outcomes.begin(), rc11_outcomes.end(), o) !=
                  rc11_outcomes.end())
          << g.description << ": SC-only outcome";
    }
  }

  // P3: raw-timestamp encoding preserves outcomes.
  {
    auto raw_sys = g.sys;
    memsem::SemanticsOptions opts;
    opts.canonical_timestamps = false;
    raw_sys.set_options(opts);
    const auto raw_outcomes = explore::final_register_values(
        raw_sys, explore::explore(raw_sys), g.regs);
    ASSERT_EQ(raw_outcomes, rc11_outcomes) << g.description;
  }

  // P4: the execution-graph quotient is differential-exact.  Outcome sets
  // and deadlock existence must match the unreduced run (raw final
  // encodings are representative-dependent, so they are *not* compared),
  // the quotient may never visit more states, and the canonical race set
  // must be identical whether or not states are keyed by the quotient.
  {
    explore::ExploreOptions rf;
    rf.rf_quotient = true;
    const auto rf_result = explore::explore(g.sys, rf);
    ASSERT_EQ(explore::final_register_values(g.sys, rf_result, g.regs),
              rc11_outcomes)
        << g.description << ": outcome set changed under the rf quotient";
    ASSERT_EQ(rf_result.stats.blocked == 0, inv_result.stats.blocked == 0)
        << g.description << ": deadlock existence changed under the quotient";
    ASSERT_LE(rf_result.stats.states, inv_result.stats.states)
        << g.description;

    race::RaceOptions plain_race;
    race::RaceOptions rf_race;
    rf_race.rf_quotient = true;
    const auto a = race::check(g.sys, plain_race);
    const auto b = race::check(g.sys, rf_race);
    std::set<std::string> a_set, b_set;
    for (const auto& r : a.races) a_set.insert(r.what);
    for (const auto& r : b.races) b_set.insert(r.what);
    ASSERT_EQ(b.racy(), a.racy()) << g.description;
    ASSERT_EQ(b_set, a_set)
        << g.description << ": race set changed under the rf quotient";
  }
}

void sweep(const std::vector<Vocab>& vocab, int var_combos) {
  const int n = static_cast<int>(vocab.size());
  std::uint64_t programs = 0;
  for (int c00 = 0; c00 < n; ++c00)
    for (int c01 = 0; c01 < n; ++c01)
      for (int c10 = 0; c10 < n; ++c10)
        for (int c11 = 0; c11 < n; ++c11)
          for (int vc = 0; vc < var_combos; ++vc) {
            // Variable pattern: thread 0 uses (x, y-or-x), thread 1 mirrors;
            // vc enumerates the 4 combinations of second-slot variables.
            const std::array<std::array<int, 2>, 2> choice{
                {{c00, c01}, {c10, c11}}};
            const std::array<std::array<int, 2>, 2> var{
                {{0, vc & 1}, {1, (vc >> 1) & 1}}};
            const auto g = build(vocab, choice, var);
            check_program(g);
            if (::testing::Test::HasFatalFailure()) return;
            ++programs;
          }
  SUCCEED() << programs << " programs checked";
}

TEST(SmallProgramFuzz, CoreVocabularyExhaustive) {
  // 4^4 instruction combinations x 4 variable patterns = 1024 programs,
  // each checked under 4 semantics configurations.
  sweep(core_vocab(), 4);
}

TEST(SmallProgramFuzz, RmwVocabularyDiagonal) {
  std::uint64_t programs = 0;
  for (const auto& g : testgen::rmw_diagonal_programs()) {
    check_program(g);
    if (::testing::Test::HasFatalFailure()) return;
    ++programs;
  }
  SUCCEED() << programs << " programs checked";
}


TEST(SmallProgramFuzz, ThreeSlotMirroredSweep) {
  // Deeper programs: three instructions per thread, thread 1 running the
  // reverse of thread 0's template over swapped variables.  256 programs.
  const auto vocab = core_vocab();
  const int n = static_cast<int>(vocab.size());
  std::uint64_t programs = 0;
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b)
      for (int cc = 0; cc < n; ++cc)
        for (int vc = 0; vc < 4; ++vc) {
          Generated g;
          const auto x = g.sys.client_var("x", 0);
          const auto y = g.sys.client_var("y", 0);
          const lang::LocId vars[2] = {x, y};
          const int t0_choice[3] = {a, b, cc};
          const int t0_var[3] = {0, vc & 1, (vc >> 1) & 1};
          for (int t = 0; t < 2; ++t) {
            auto tb = g.sys.thread();
            for (int s = 0; s < 3; ++s) {
              auto r = tb.reg("r" + std::to_string(t) + std::to_string(s));
              g.regs.push_back(r);
              const int slot = t == 0 ? s : 2 - s;
              const auto& v = vocab[static_cast<std::size_t>(t0_choice[slot])];
              const int vi = t == 0 ? t0_var[slot] : 1 - t0_var[slot];
              v.emit(tb, vars[vi], r, 10 * (t + 1) + s + 1);
            }
          }
          g.description = "three-slot mirrored";
          check_program(g);
          if (::testing::Test::HasFatalFailure()) return;
          ++programs;
        }
  SUCCEED() << programs << " programs checked";
}

}  // namespace
