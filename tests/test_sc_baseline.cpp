// Tests for the SC baseline mode: running the *same* programs under
// sequential consistency must (a) produce exactly the classical SC outcome
// sets, (b) never exhibit an outcome RC11 RAR forbids (SC refines RC11 RAR),
// and (c) explore at most as many states.  The difference between the two
// outcome sets is precisely the set of weak behaviours the paper's model
// admits.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "explore/explorer.hpp"

namespace {

using namespace rc11;
using lang::Value;

std::vector<std::vector<Value>> sc_outcomes(catalogue::Litmus& test) {
  memsem::SemanticsOptions opts;
  opts.model = memsem::MemoryModel::SC;
  test.sys.set_options(opts);
  const auto result = explore::explore(test.sys);
  return explore::final_register_values(test.sys, result, test.observed);
}

/// The classical SC outcome sets, stated independently of the engine.
std::map<std::string, std::vector<std::vector<Value>>> sc_expected() {
  std::map<std::string, std::vector<std::vector<Value>>> exp;
  exp["MP+rel+acq"] = {{0, 0}, {0, 5}, {1, 5}};
  exp["MP+rlx"] = {{0, 0}, {0, 5}, {1, 5}};  // the stale (1, 0) disappears
  exp["SB+rel+acq"] = {{0, 1}, {1, 0}, {1, 1}};  // (0, 0) is the weak one
  exp["LB+rlx"] = {{0, 0}, {0, 1}, {1, 0}};      // same as RC11 (no LB cycles)
  exp["CoRR"] = {{0, 0}, {0, 1}, {1, 1}};
  exp["CoWW+reads"] = {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}};
  {
    // IRIW: only the disagreement (1,0,1,0) is excluded under SC.
    std::vector<std::vector<Value>> all;
    for (Value a = 0; a <= 1; ++a)
      for (Value b = 0; b <= 1; ++b)
        for (Value c = 0; c <= 1; ++c)
          for (Value d = 0; d <= 1; ++d) {
            if (a == 1 && b == 0 && c == 1 && d == 0) continue;
            all.push_back({a, b, c, d});
          }
    exp["IRIW+rel+acq"] = all;
  }
  exp["CAS-agreement"] = {{0, 1}, {1, 0}};
  exp["FAI-tickets"] = {{0, 1}, {1, 0}};
  exp["2W+reads"] = {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 1}, {2, 2}};
  exp["Fig1-stack-MP+rlx"] = {{1, 5}};  // SC repairs the unsynchronised stack
  exp["Fig2-stack-MP+sync"] = {{1, 5}};
  return exp;
}

class ScSuite : public ::testing::TestWithParam<int> {};

TEST_P(ScSuite, OutcomeSetMatchesSequentialConsistency) {
  auto tests = catalogue::litmus_tests();
  auto& t = tests.at(static_cast<std::size_t>(GetParam()));
  const auto expected = sc_expected();
  ASSERT_TRUE(expected.count(t.name)) << "no SC expectation for " << t.name;
  EXPECT_EQ(sc_outcomes(t), expected.at(t.name)) << t.name;
}

TEST_P(ScSuite, ScOutcomesAreSubsetOfRC11) {
  auto tests = catalogue::litmus_tests();
  auto& rc11_test = tests.at(static_cast<std::size_t>(GetParam()));
  const auto rc11_result = explore::explore(rc11_test.sys);
  const auto rc11_set = explore::final_register_values(
      rc11_test.sys, rc11_result, rc11_test.observed);

  auto sc_test = catalogue::litmus_tests().at(static_cast<std::size_t>(GetParam()));
  const auto sc_set = sc_outcomes(sc_test);
  for (const auto& o : sc_set) {
    EXPECT_TRUE(std::find(rc11_set.begin(), rc11_set.end(), o) !=
                rc11_set.end())
        << rc11_test.name << ": SC produced an outcome RC11 RAR forbids";
  }
}

TEST_P(ScSuite, ScStateSpaceIsNoLarger) {
  auto tests = catalogue::litmus_tests();
  auto& rc11_test = tests.at(static_cast<std::size_t>(GetParam()));
  const auto rc11_states = explore::explore(rc11_test.sys).stats.states;

  auto sc_test = catalogue::litmus_tests().at(static_cast<std::size_t>(GetParam()));
  memsem::SemanticsOptions opts;
  opts.model = memsem::MemoryModel::SC;
  sc_test.sys.set_options(opts);
  const auto sc_states = explore::explore(sc_test.sys).stats.states;
  EXPECT_LE(sc_states, rc11_states) << rc11_test.name;
}

INSTANTIATE_TEST_SUITE_P(AllTests, ScSuite, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return catalogue::param_name(
                               catalogue::litmus_tests()
                                   .at(static_cast<std::size_t>(p.param))
                                   .name);
                         });

TEST(ScBaseline, WeakBehavioursExistSomewhere) {
  // RC11 RAR is strictly weaker than SC on exactly MP+rlx, SB, IRIW and the
  // Fig. 1 stack; no SC outcome set is larger.  SC state counts in
  // catalogue order.
  const std::uint64_t sc_states[] = {13, 13, 13, 13, 9, 19,
                                     97, 5,  5,  35, 12, 12};
  std::vector<std::string> strictly_weaker;
  auto tests = catalogue::litmus_tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    auto& t = tests[i];
    const auto rc11_set = explore::final_register_values(
        t.sys, explore::explore(t.sys), t.observed);
    auto sc_test = t;
    memsem::SemanticsOptions opts;
    opts.model = memsem::MemoryModel::SC;
    sc_test.sys.set_options(opts);
    const auto sc_result = explore::explore(sc_test.sys);
    EXPECT_EQ(sc_result.stats.states, sc_states[i]) << t.name;
    const auto sc_set = explore::final_register_values(
        sc_test.sys, sc_result, sc_test.observed);
    EXPECT_LE(sc_set.size(), rc11_set.size()) << t.name;
    if (sc_set.size() < rc11_set.size()) strictly_weaker.push_back(t.name);
  }
  const std::vector<std::string> expected{"MP+rlx", "SB+rel+acq",
                                          "IRIW+rel+acq", "Fig1-stack-MP+rlx"};
  EXPECT_EQ(strictly_weaker, expected);
}

TEST(ScBaseline, CausalityChainsHoldTriviallyUnderSC) {
  for (auto& t : catalogue::causality_tests()) {
    memsem::SemanticsOptions opts;
    opts.model = memsem::MemoryModel::SC;
    t.sys.set_options(opts);
    const auto result = explore::explore(t.sys);
    for (const auto& o : t.must_forbid) {
      EXPECT_FALSE(explore::outcome_reachable(t.sys, result, t.observed, o))
          << t.name << ": SC must forbid whatever RA forbids here";
    }
  }
}

}  // namespace
