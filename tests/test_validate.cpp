// Property tests: the structural invariants of the memory semantics hold at
// *every reachable state* of every litmus test and every lock/stack client,
// and views move monotonically along every transition.  This is the
// semantics-wide safety net behind the individual rule tests.

#include <gtest/gtest.h>

#include <deque>

#include "catalogue.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "memsem/validate.hpp"
#include "stacks/stack_objects.hpp"

namespace {

using namespace rc11;
using lang::Config;
using lang::System;

/// Walks every reachable state, validating each state and each transition.
void validate_everywhere(const System& sys) {
  std::uint64_t checked = 0;
  const auto result = explore::explore(
      sys, {}, [&](const System& s, const Config& cfg) -> std::optional<std::string> {
        ++checked;
        if (auto err = memsem::validate(cfg.mem)) {
          return "state invariant: " + *err;
        }
        for (const auto& step : lang::successors(s, cfg)) {
          if (auto err = memsem::validate_view_monotone(cfg.mem, step.after.mem)) {
            return "transition invariant: " + *err;
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.violations.empty())
      << (result.violations.empty() ? "" : result.violations[0].what);
  EXPECT_GT(checked, 0u);
  EXPECT_FALSE(result.truncated);
}

class LitmusInvariants : public ::testing::TestWithParam<int> {};

TEST_P(LitmusInvariants, HoldEverywhere) {
  auto tests = catalogue::litmus_tests();
  validate_everywhere(tests.at(static_cast<std::size_t>(GetParam())).sys);
}

INSTANTIATE_TEST_SUITE_P(AllLitmus, LitmusInvariants, ::testing::Range(0, 12));

TEST(ClientInvariants, AbstractLockClient) {
  locks::AbstractLock lock;
  validate_everywhere(locks::instantiate(locks::fig7_client(), lock));
}

TEST(ClientInvariants, SeqLockClient) {
  locks::SeqLock lock;
  validate_everywhere(locks::instantiate(locks::fig7_client(), lock));
}

TEST(ClientInvariants, TicketLockClient) {
  locks::TicketLock lock;
  validate_everywhere(locks::instantiate(locks::mgc_client(2, 1), lock));
}

TEST(ClientInvariants, LockedVectorStackClient) {
  stacks::LockedVectorStack stack{2};
  validate_everywhere(
      stacks::instantiate(stacks::producer_consumer_client(2), stack));
}

TEST(Validator, AcceptsInitialStates) {
  memsem::LocationTable locs;
  locs.add_var("x", memsem::Component::Client, 0);
  locs.add_object("l", memsem::Component::Library, memsem::LocKind::Lock);
  locs.add_object("s", memsem::Component::Library, memsem::LocKind::Stack);
  const memsem::MemState m{locs, 3};
  EXPECT_EQ(memsem::validate(m), std::nullopt);
}

TEST(Validator, MonotoneIsReflexive) {
  memsem::LocationTable locs;
  locs.add_var("x", memsem::Component::Client, 0);
  const memsem::MemState m{locs, 2};
  EXPECT_EQ(memsem::validate_view_monotone(m, m), std::nullopt);
}

TEST(Validator, DetectsBackwardViews) {
  memsem::LocationTable locs;
  const auto x = locs.add_var("x", memsem::Component::Client, 0);
  memsem::MemState before{locs, 2};
  memsem::MemState after = before;
  before.write(0, x, 1, memsem::MemOrder::Relaxed, before.mo(x)[0]);
  // `after` never advanced, so thread 0's view in `after` is behind.
  EXPECT_NE(memsem::validate_view_monotone(before, after), std::nullopt);
}

}  // namespace
