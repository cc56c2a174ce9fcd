// Tests for the explicit-state explorer and the litmus suite: every litmus
// program's reachable outcome set must equal its allowed set exactly (both
// the presence of weak behaviours and the absence of forbidden ones), and
// the explorer's bookkeeping (dedup, truncation, violations, traces) must
// hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "catalogue.hpp"
#include "explore/dot.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using explore::ExploreOptions;
using explore::explore;
using lang::c;
using lang::Config;
using lang::System;
using lang::Value;

std::string outcomes_to_string(const std::vector<std::vector<Value>>& v) {
  std::ostringstream os;
  for (const auto& tuple : v) {
    os << "(";
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      os << (i ? "," : "") << tuple[i];
    }
    os << ") ";
  }
  return os.str();
}

// --- litmus suite (parameterised) -------------------------------------------

class LitmusSuite : public ::testing::TestWithParam<int> {};

/// Reachable states of each litmus test, in catalogue order (Fig1/Fig2 are
/// the paper's F1 and F2).
const std::uint64_t kLitmusStates[] = {13, 14, 14, 13, 9, 19,
                                       98, 5,  5,  35, 13, 12};

TEST_P(LitmusSuite, OutcomeSetMatchesRC11Exactly) {
  auto tests = catalogue::litmus_tests();
  const auto idx = static_cast<std::size_t>(GetParam());
  auto& t = tests.at(idx);
  const auto result = explore(t.sys);
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.stats.states, kLitmusStates[idx]) << t.name;
  const auto outcomes =
      explore::final_register_values(t.sys, result, t.observed);
  EXPECT_EQ(outcomes, t.allowed)
      << t.name << ": got " << outcomes_to_string(outcomes) << " expected "
      << outcomes_to_string(t.allowed);
}

INSTANTIATE_TEST_SUITE_P(AllTests, LitmusSuite,
                         ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return catalogue::param_name(
                               catalogue::litmus_tests()
                                   .at(static_cast<std::size_t>(p.param))
                                   .name);
                         });

TEST(LitmusRegistry, CountMatchesParameterisation) {
  EXPECT_EQ(catalogue::litmus_tests().size(), 12u);
}

// --- explorer bookkeeping ---------------------------------------------------

TEST(Explorer, SingleThreadProgramHasLinearStateSpace) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  t0.store(x, c(2));
  const auto result = explore(sys);
  EXPECT_EQ(result.stats.states, 3u);
  EXPECT_EQ(result.stats.finals, 1u);
  EXPECT_EQ(result.stats.blocked, 0u);
  EXPECT_TRUE(result.ok());
}

TEST(Explorer, DeduplicatesConfluentInterleavings) {
  // Two threads each doing one local assignment commute: the diamond must
  // be explored as 4 states, not 4 paths.
  System sys;
  auto t0 = sys.thread();
  auto a = t0.reg("a");
  t0.assign(a, c(1));
  auto t1 = sys.thread();
  auto b = t1.reg("b");
  t1.assign(b, c(1));
  const auto result = explore(sys);
  EXPECT_EQ(result.stats.states, 4u);
  EXPECT_EQ(result.stats.transitions, 4u);
  EXPECT_EQ(result.stats.finals, 1u);
}

TEST(Explorer, ReportsDeadlockAsBlocked) {
  System sys;
  auto l = sys.library_lock("l");
  auto t0 = sys.thread();
  t0.acquire(l);
  t0.acquire(l);  // self-deadlock
  const auto result = explore(sys);
  EXPECT_EQ(result.stats.blocked, 1u);
  EXPECT_EQ(result.stats.finals, 0u);
}

TEST(Explorer, TruncationIsReported) {
  System sys;
  auto x = sys.client_var("x", 0);
  for (int t = 0; t < 3; ++t) {
    auto tb = sys.thread();
    tb.store(x, c(t + 1));
    tb.store(x, c(t + 10));
  }
  ExploreOptions opts;
  opts.max_states = 5;
  const auto result = explore(sys, opts);
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.ok());
}

TEST(Explorer, InvariantViolationCarriesTrace) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  t0.store(x, c(2));
  ExploreOptions opts;
  opts.track_traces = true;
  const auto result = explore(
      sys, opts, [&](const System& s, const Config& cfg) -> std::optional<std::string> {
        (void)s;
        if (cfg.mem.op(cfg.mem.last_op(x)).value == 2) {
          return "x reached 2";
        }
        return std::nullopt;
      });
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].what, "x reached 2");
  ASSERT_EQ(result.violations[0].trace.size(), 3u);  // init, x:=1, x:=2
  EXPECT_NE(result.violations[0].trace[2].find("x := 2"), std::string::npos);
  EXPECT_FALSE(result.violations[0].state_dump.empty());
}

TEST(Explorer, InvariantCanCollectAllViolations) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  auto t1 = sys.thread();
  t1.store(x, c(2));
  ExploreOptions opts;
  opts.stop_on_violation = false;
  const auto result = explore(
      sys, opts, [&](const System&, const Config& cfg) -> std::optional<std::string> {
        if (cfg.mem.mo(x).size() == 3) return "both writes placed";
        return std::nullopt;
      });
  // Two placement orders for the concurrent writes reach mo-size 3, and the
  // interleaving diamond gives several distinct full configurations.
  EXPECT_GE(result.violations.size(), 2u);
}

TEST(Explorer, OutcomeHelpersAgree) {
  const auto t = catalogue::find(catalogue::litmus_tests(), "MP+rel+acq");
  const auto result = explore(t.sys);
  EXPECT_TRUE(explore::outcome_reachable(t.sys, result, t.observed, {1, 5}));
  EXPECT_FALSE(explore::outcome_reachable(t.sys, result, t.observed, {1, 0}));
}

// --- ablation A1: no cross-component transfer ⇒ Fig. 2 breaks ---------------

TEST(AblationA1, SynchronisingStackStopsPassingMessages) {
  // With the transfer every outcome reads the published 5; without it
  // exactly one stale outcome (r1 = 1, r2 = 0) becomes reachable.
  for (const bool transfer : {true, false}) {
    auto t = catalogue::find(catalogue::litmus_tests(), "Fig2-stack-MP+sync");
    rc11::memsem::SemanticsOptions opts;
    opts.cross_component_view_transfer = transfer;
    t.sys.set_options(opts);
    const auto result = explore(t.sys);
    const auto outcomes =
        explore::final_register_values(t.sys, result, t.observed);
    const auto stale = std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const std::vector<Value>& o) { return o[1] != 5; });
    EXPECT_EQ(result.stats.states, transfer ? 12u : 13u);
    EXPECT_EQ(stale, transfer ? 0 : 1);
    EXPECT_EQ(explore::outcome_reachable(t.sys, result, t.observed, {1, 0}),
              !transfer)
        << "without ctview transfer the library cannot publish client writes";
  }
}

// --- ablation A2: no covered-set enforcement ⇒ CAS atomicity breaks ----------

TEST(AblationA2, CompetingCasBothSucceed) {
  for (const bool enforce : {true, false}) {
    auto t = catalogue::find(catalogue::litmus_tests(), "CAS-agreement");
    rc11::memsem::SemanticsOptions opts;
    opts.enforce_covered = enforce;
    t.sys.set_options(opts);
    const auto result = explore(t.sys);
    EXPECT_EQ(result.stats.states, enforce ? 5u : 7u);
    EXPECT_EQ(explore::outcome_reachable(t.sys, result, t.observed, {1, 1}),
              !enforce)
        << "without cvd both CASes can read the same write and succeed";
  }
}

TEST(AblationA2, LockProtectedCounterLosesUpdates) {
  // Without cvd the CAS spinlock's mutual exclusion collapses: terminating
  // runs of the two-increment counter client end with x != 2.
  for (const bool enforce : {true, false}) {
    rc11::memsem::SemanticsOptions opts;
    opts.enforce_covered = enforce;
    locks::CasSpinLock lock;
    auto sys = locks::instantiate(locks::counter_client(2, 1), lock);
    sys.set_options(opts);
    ExploreOptions eopts;
    eopts.stop_on_violation = false;
    const auto result = explore(
        sys, eopts,
        [](const System& s, const Config& cfg) -> std::optional<std::string> {
          if (!cfg.all_done(s)) return std::nullopt;
          const auto x = s.locations().find("x");
          if (cfg.mem.op(cfg.mem.last_op(x)).value != 2) return "lost update";
          return std::nullopt;
        });
    EXPECT_EQ(result.stats.states, enforce ? 49u : 187u);
    EXPECT_EQ(result.violations.size(), enforce ? 0u : 12u);
  }
}

// --- ablation A3: raw timestamps inflate the state space --------------------

TEST(AblationA3, NonCanonicalTimestampsInflateStateCount) {
  // Hashing raw rationals changes no litmus outcome set; it inflates the
  // state count of 2W+reads, the shape whose order-isomorphic states carry
  // different raw timestamps depending on which writer inserted first.
  auto tests = catalogue::litmus_tests();
  for (std::size_t i = 0; i < tests.size(); ++i) {
    auto& raw = tests[i];
    rc11::memsem::SemanticsOptions opts;
    opts.canonical_timestamps = false;
    raw.sys.set_options(opts);
    const auto raw_result = explore(raw.sys);
    EXPECT_EQ(raw_result.stats.states,
              raw.name == "2W+reads" ? 55u : kLitmusStates[i])
        << raw.name;
    EXPECT_EQ(
        explore::final_register_values(raw.sys, raw_result, raw.observed),
        raw.allowed)
        << raw.name;
  }
}


// --- causality-chain tests (partial expectations) -----------------------------

class CausalitySuite : public ::testing::TestWithParam<int> {};

TEST_P(CausalitySuite, KeyOutcomesMatchRC11) {
  const std::uint64_t states[] = {36, 37, 51, 21};
  auto tests = catalogue::causality_tests();
  const auto idx = static_cast<std::size_t>(GetParam());
  auto& t = tests.at(idx);
  const auto result = explore(t.sys);
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.stats.states, states[idx]) << t.name;
  for (const auto& outcome : t.must_allow) {
    EXPECT_TRUE(explore::outcome_reachable(t.sys, result, t.observed, outcome))
        << t.name << ": outcome " << outcomes_to_string({outcome})
        << "must be reachable";
  }
  for (const auto& outcome : t.must_forbid) {
    EXPECT_FALSE(explore::outcome_reachable(t.sys, result, t.observed, outcome))
        << t.name << ": outcome " << outcomes_to_string({outcome})
        << "must be forbidden";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCausality, CausalitySuite, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return catalogue::param_name(
                               catalogue::causality_tests()
                                   .at(static_cast<std::size_t>(p.param))
                                   .name);
                         });


// --- DOT export --------------------------------------------------------------

TEST(DotExport, ProducesWellFormedGraph) {
  const auto t = catalogue::find(catalogue::litmus_tests(), "MP+rel+acq");
  refinement::GraphOptions opts;
  opts.max_states = 100000;
  opts.want_labels = true;
  const auto graph = refinement::build_graph(t.sys, opts);
  const auto dot = explore::to_dot(t.sys, graph);
  EXPECT_NE(dot.find("digraph rc11 {"), std::string::npos);
  EXPECT_NE(dot.find("s0"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("r1 <-A f"), std::string::npos) << "edge labels present";
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos) << "finals marked";
  // Every state appears as a node.
  for (std::uint32_t i = 0; i < graph.num_states(); ++i) {
    std::string node = "s";
    node += std::to_string(i);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
}

TEST(DotExport, EscapesQuotes) {
  // Step labels name locations, so a quote in a name reaches the DOT text.
  lang::System sys;
  const auto x = sys.client_var("say \"hi\"", 0);
  auto t0 = sys.thread();
  t0.store(x, lang::c(1));
  refinement::GraphOptions opts;
  opts.max_states = 1000;
  opts.want_labels = true;
  const auto graph = refinement::build_graph(sys, opts);
  const auto dot = explore::to_dot(sys, graph);
  EXPECT_EQ(dot.find("\"hi\""), std::string::npos)
      << "raw quotes must not appear unescaped";
  EXPECT_NE(dot.find("say \\\"hi\\\" := 1"), std::string::npos)
      << "the escaped name reaches the edge label";
}


TEST(Explorer, AbbaDeadlockDetected) {
  // The classic lock-ordering deadlock: t0 takes l1 then l2, t1 takes l2
  // then l1.  The explorer must report the stuck interleaving as blocked
  // while still finding the successful serialisations.
  System sys;
  const auto l1 = sys.library_lock("l1");
  const auto l2 = sys.library_lock("l2");
  auto t0 = sys.thread();
  t0.acquire(l1);
  t0.acquire(l2);
  t0.release(l2);
  t0.release(l1);
  auto t1 = sys.thread();
  t1.acquire(l2);
  t1.acquire(l1);
  t1.release(l1);
  t1.release(l2);
  const auto result = explore(sys);
  EXPECT_EQ(result.stats.blocked, 1u) << "exactly the ABBA state deadlocks";
  EXPECT_GT(result.stats.finals, 0u) << "serial executions still complete";
}

TEST(Explorer, ConsistentLockOrderHasNoDeadlock) {
  System sys;
  const auto l1 = sys.library_lock("l1");
  const auto l2 = sys.library_lock("l2");
  for (int t = 0; t < 2; ++t) {
    auto tb = sys.thread();
    tb.acquire(l1);
    tb.acquire(l2);
    tb.release(l2);
    tb.release(l1);
  }
  const auto result = explore(sys);
  EXPECT_EQ(result.stats.blocked, 0u);
  EXPECT_GT(result.stats.finals, 0u);
}

}  // namespace
