// Tests for the mutual-exclusion case studies: Peterson's and Dekker's
// algorithms are correct under the SC baseline but broken under RC11 RAR
// (the store-buffering shape between flag publication and flag read cannot
// be ordered by release/acquire) — and the verified lock implementations
// protect the same increment correctly under RC11 RAR.

#include <gtest/gtest.h>

#include <cstdint>

#include "explore/explorer.hpp"
#include "litmus/case_studies.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"

namespace {

using namespace rc11;
using litmus::increment_lost;

class MutexStudy : public ::testing::TestWithParam<int> {
 protected:
  static litmus::MutexCaseStudy study(int idx) {
    return idx == 0 ? litmus::peterson_counter() : litmus::dekker_counter();
  }
};

TEST_P(MutexStudy, BrokenUnderRC11RAR) {
  const auto s = study(GetParam());
  EXPECT_TRUE(increment_lost(s, {}))
      << s.name << " should lose an increment under release/acquire";
}

TEST_P(MutexStudy, CorrectUnderSCBaseline) {
  const auto s = study(GetParam());
  memsem::SemanticsOptions sc;
  sc.model = memsem::MemoryModel::SC;
  EXPECT_FALSE(increment_lost(s, sc))
      << s.name << " is a correct SC algorithm";
}

TEST_P(MutexStudy, TerminatingRunsExist) {
  // Reachable states under RC11 RAR and under SC: Peterson, then Dekker.
  const std::uint64_t rc11_states[] = {617, 316};
  const std::uint64_t sc_states[] = {262, 231};
  auto s = study(GetParam());
  const auto result = explore::explore(s.sys);
  EXPECT_GT(result.stats.finals, 0u);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.stats.states, rc11_states[GetParam()]) << s.name;
  memsem::SemanticsOptions sc;
  sc.model = memsem::MemoryModel::SC;
  s.sys.set_options(sc);
  EXPECT_EQ(explore::explore(s.sys).stats.states, sc_states[GetParam()])
      << s.name;
}

INSTANTIATE_TEST_SUITE_P(Protocols, MutexStudy, ::testing::Range(0, 2),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 0 ? std::string("peterson")
                                                  : std::string("dekker");
                         });

TEST(MutexStudy, LockLibrariesProtectTheSameIncrement) {
  // The constructive counterpart: every verified lock implementation keeps
  // the increment exact under RC11 RAR.
  const auto check = [](locks::LockObject& lock) {
    const auto sys =
        locks::instantiate(locks::counter_client(2, 1), lock);
    const auto result = explore::explore(sys);
    const auto x = sys.locations().find("x");
    for (const auto& cfg : result.final_configs) {
      if (cfg.mem.op(cfg.mem.last_op(x)).value != 2) return false;
    }
    return result.stats.finals > 0;
  };
  locks::AbstractLock abs;
  EXPECT_TRUE(check(abs));
  locks::SeqLock seq;
  EXPECT_TRUE(check(seq));
  locks::TicketLock ticket;
  EXPECT_TRUE(check(ticket));
  locks::CasSpinLock spin;
  EXPECT_TRUE(check(spin));
  locks::TTASLock ttas;
  EXPECT_TRUE(check(ttas));
}

TEST(MutexStudy, BrokenLocksLoseIncrementsToo) {
  locks::SeqLock broken{/*releasing_release=*/false};
  const auto sys = locks::instantiate(locks::counter_client(2, 1), broken);
  const auto result = explore::explore(sys);
  const auto x = sys.locations().find("x");
  bool lost = false;
  for (const auto& cfg : result.final_configs) {
    if (cfg.mem.op(cfg.mem.last_op(x)).value != 2) lost = true;
  }
  EXPECT_TRUE(lost)
      << "a relaxed release forfeits write visibility, so the read-then-write "
         "increment can act on stale data";
}


// --- the positive counterpart: a barrier that IS correct under RC11 RAR -------

TEST(Barrier, ExchangesDataUnderRC11RAR) {
  // The FAI arrival chain + releasing sense flip + acquiring spin is enough
  // synchronisation: after the barrier both threads definitely see the
  // other's pre-barrier write.
  auto study = litmus::barrier_exchange();
  const auto result = explore::explore(study.sys);
  ASSERT_GT(result.stats.finals, 0u);
  EXPECT_EQ(result.stats.blocked, 0u);
  EXPECT_EQ(result.stats.states, 64u);
  const auto outcomes = explore::final_register_values(
      study.sys, result, {study.r0, study.r1});
  const std::vector<std::vector<lang::Value>> expected{{1, 1}};
  EXPECT_EQ(outcomes, expected)
      << "every terminating run must exchange both data";
}

TEST(Barrier, BreaksWithoutTheReleasingFlip) {
  // Ablation at the program level: make the sense flip relaxed and the
  // spinner can leave the barrier without the flipper's (and transitively
  // the other arrival's) data.
  // A fresh construction mirroring barrier_exchange with a relaxed store
  // instead of the releasing one.
  lang::System sys;
  const auto a = sys.client_var("a", 0);
  const auto b = sys.client_var("b", 0);
  const auto count = sys.library_var("count", 0);
  const auto sense = sys.library_var("sense", 0);
  std::vector<lang::Reg> outs;
  for (int i = 0; i < 2; ++i) {
    const auto mine = i == 0 ? a : b;
    const auto other = i == 0 ? b : a;
    auto tb = sys.thread();
    auto arrived = tb.reg("arrived");
    auto spin = tb.reg("spin");
    auto r = tb.reg("r");
    tb.store(mine, lang::c(1));
    tb.fai(arrived, count);
    tb.if_else(
        lang::Expr{arrived} == lang::c(1),
        [&] { tb.store(sense, lang::c(1)); },
        [&] {
          tb.do_until([&] { tb.load_acq(spin, sense); },
                      lang::Expr{spin} == lang::c(1));
        });
    tb.load(r, other);
    outs.push_back(r);
  }
  const auto result = explore::explore(sys);
  bool stale = false;
  for (const auto& o :
       explore::final_register_values(sys, result, outs)) {
    if (o[0] != 1 || o[1] != 1) stale = true;
  }
  EXPECT_TRUE(stale) << "a relaxed sense flip must leak a stale read";
}

}  // namespace
