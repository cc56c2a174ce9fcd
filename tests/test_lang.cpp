// Tests for the program language: expression evaluation, the builder's
// control-flow compilation, and the combined small-step semantics of Fig. 4
// (one instruction = one atomic transition, with all memory nondeterminism
// enumerated).

#include <gtest/gtest.h>

#include <set>

#include "lang/config.hpp"
#include "lang/system.hpp"
#include "support/hash.hpp"

namespace {

using namespace rc11::lang;
using rc11::memsem::kStackEmpty;
using rc11::memsem::MemOrder;
using rc11::memsem::OpKind;

// --- expressions -----------------------------------------------------------

TEST(Expr, ConstantAndRegister) {
  const std::vector<Value> regs{10, 20};
  EXPECT_EQ(c(7).eval(regs), 7);
  EXPECT_EQ(Expr::reg(1).eval(regs), 20);
}

TEST(Expr, Arithmetic) {
  const std::vector<Value> regs{6};
  const Expr r0 = Expr::reg(0);
  EXPECT_EQ((r0 + c(2)).eval(regs), 8);
  EXPECT_EQ((r0 - c(2)).eval(regs), 4);
  EXPECT_EQ((r0 * c(2)).eval(regs), 12);
  EXPECT_EQ((r0 % c(4)).eval(regs), 2);
}

TEST(Expr, Comparisons) {
  const std::vector<Value> regs{5};
  const Expr r0 = Expr::reg(0);
  EXPECT_EQ((r0 == c(5)).eval(regs), 1);
  EXPECT_EQ((r0 != c(5)).eval(regs), 0);
  EXPECT_EQ((r0 < c(6)).eval(regs), 1);
  EXPECT_EQ((r0 <= c(5)).eval(regs), 1);
  EXPECT_EQ((r0 > c(5)).eval(regs), 0);
  EXPECT_EQ((r0 >= c(6)).eval(regs), 0);
}

TEST(Expr, Logic) {
  const std::vector<Value> regs{1, 0};
  const Expr a = Expr::reg(0);
  const Expr b = Expr::reg(1);
  EXPECT_EQ((a && b).eval(regs), 0);
  EXPECT_EQ((a || b).eval(regs), 1);
  EXPECT_EQ((!b).eval(regs), 1);
}

TEST(Expr, EvenPredicate) {
  EXPECT_EQ(is_even(c(4)).eval({}), 1);
  EXPECT_EQ(is_even(c(5)).eval({}), 0);
  EXPECT_EQ(is_even(c(-2)).eval({}), 1);
}

TEST(Expr, MaxRegAndToString) {
  const Expr e = (Expr::reg(3) + c(1)) * Expr::reg(1);
  EXPECT_EQ(e.max_reg(), 3);
  EXPECT_EQ(e.to_string(), "((r3 + 1) * r1)");
}

TEST(Expr, ModuloByZeroIsUserError) {
  EXPECT_THROW((void)(c(1) % c(0)).eval({}), rc11::support::Error);
}

// --- builder / control flow ------------------------------------------------

TEST(Builder, RegistersAreChecked) {
  System sys;
  auto t0 = sys.thread();
  auto t1 = sys.thread();
  auto r = t0.reg("r");
  EXPECT_THROW(t1.assign(r, c(1)), rc11::support::InternalError);
  EXPECT_THROW(t0.reg("r"), rc11::support::Error);
}

TEST(Builder, IfElseCompilesAndRuns) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto r = t0.reg("r", 1);
  t0.if_else(
      Expr{r} == c(1), [&] { t0.store(x, c(10)); },
      [&] { t0.store(x, c(20)); });

  auto cfg = initial_config(sys);
  // Run to completion (single thread, deterministic branch).
  while (!cfg.all_done(sys)) {
    auto steps = successors(sys, cfg);
    ASSERT_EQ(steps.size(), 1u);
    cfg = steps[0].after;
  }
  EXPECT_EQ(cfg.mem.op(cfg.mem.last_op(x)).value, 10);
}

TEST(Builder, IfWithoutElse) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto r = t0.reg("r", 0);
  t0.if_else(Expr{r} == c(1), [&] { t0.store(x, c(10)); });
  t0.store(x, c(99));

  auto cfg = initial_config(sys);
  std::size_t steps_taken = 0;
  while (!cfg.all_done(sys)) {
    auto steps = successors(sys, cfg);
    ASSERT_FALSE(steps.empty());
    cfg = steps[0].after;
    ++steps_taken;
  }
  EXPECT_EQ(cfg.mem.op(cfg.mem.last_op(x)).value, 99);
  EXPECT_EQ(cfg.mem.mo(x).size(), 2u) << "then-branch must be skipped";
}

TEST(Builder, WhileLoopCountsDown) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto r = t0.reg("r", 3);
  auto sum = t0.reg("sum", 0);
  t0.while_(Expr{r} > c(0), [&] {
    t0.assign(sum, Expr{sum} + Expr{r});
    t0.assign(r, Expr{r} - c(1));
  });
  t0.store(x, sum);

  auto cfg = initial_config(sys);
  while (!cfg.all_done(sys)) {
    auto steps = successors(sys, cfg);
    ASSERT_EQ(steps.size(), 1u);
    cfg = steps[0].after;
  }
  EXPECT_EQ(cfg.mem.op(cfg.mem.last_op(x)).value, 6);  // 3+2+1
}

TEST(Builder, DoUntilExecutesBodyAtLeastOnce) {
  System sys;
  auto t0 = sys.thread();
  auto r = t0.reg("r", 0);
  t0.do_until([&] { t0.assign(r, Expr{r} + c(1)); }, Expr{r} >= c(1));

  auto cfg = initial_config(sys);
  while (!cfg.all_done(sys)) {
    auto steps = successors(sys, cfg);
    ASSERT_EQ(steps.size(), 1u);
    cfg = steps[0].after;
  }
  EXPECT_EQ(cfg.regs[0][r.id], 1);
}

TEST(Builder, DisassembleListsAllThreads) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.load(r, x);
  const auto dis = sys.disassemble();
  EXPECT_NE(dis.find("thread 0"), std::string::npos);
  EXPECT_NE(dis.find("thread 1"), std::string::npos);
  EXPECT_NE(dis.find("x := 1"), std::string::npos);
}

// --- step semantics --------------------------------------------------------

TEST(Step, LoadEnumeratesAllObservableWrites) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.load(r, x);

  auto cfg = initial_config(sys);
  // Let thread 0 write first.
  cfg = thread_successors(sys, cfg, 0)[0].after;
  const auto steps = thread_successors(sys, cfg, 1);
  ASSERT_EQ(steps.size(), 2u) << "init and the new write are both readable";
  std::set<Value> seen;
  for (const auto& s : steps) seen.insert(s.after.regs[1][r.id]);
  EXPECT_EQ(seen, (std::set<Value>{0, 1}));
}

TEST(Step, StoreEnumeratesPlacementChoices) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  auto t1 = sys.thread();
  t1.store(x, c(2));

  auto cfg = initial_config(sys);
  cfg = thread_successors(sys, cfg, 0)[0].after;
  const auto steps = thread_successors(sys, cfg, 1);
  ASSERT_EQ(steps.size(), 2u) << "after init or after the write of 1";
  std::set<std::uint32_t> ranks;
  for (const auto& s : steps) {
    for (const auto w : s.after.mem.mo(x)) {
      if (s.after.mem.op(w).value == 2) ranks.insert(s.after.mem.rank(w));
    }
  }
  EXPECT_EQ(ranks, (std::set<std::uint32_t>{1, 2}));
}

TEST(Step, CasEnumeratesSuccessAndFailure) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(3));
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.cas(r, x, c(0), c(1));

  auto cfg = initial_config(sys);
  cfg = thread_successors(sys, cfg, 0)[0].after;  // x history: init(0), 3
  const auto steps = thread_successors(sys, cfg, 1);
  // Success on init (value 0), failure reading the write of 3.
  ASSERT_EQ(steps.size(), 2u);
  std::set<Value> results;
  for (const auto& s : steps) results.insert(s.after.regs[1][r.id]);
  EXPECT_EQ(results, (std::set<Value>{0, 1}));
}

TEST(Step, CasSuccessCoversTheReadWrite) {
  System sys;
  auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto r = t0.reg("r");
  t0.cas(r, x, c(0), c(1));

  auto cfg = initial_config(sys);
  const auto steps = thread_successors(sys, cfg, 0);
  ASSERT_EQ(steps.size(), 1u);
  const auto& mem = steps[0].after.mem;
  EXPECT_TRUE(mem.op(mem.mo(x)[0]).covered);
  EXPECT_EQ(steps[0].after.regs[0][r.id], 1);
}

TEST(Step, FaiReturnsOldValue) {
  System sys;
  auto x = sys.client_var("x", 41);
  auto t0 = sys.thread();
  auto r = t0.reg("r");
  t0.fai(r, x);

  auto cfg = initial_config(sys);
  const auto steps = thread_successors(sys, cfg, 0);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].after.regs[0][r.id], 41);
  const auto& mem = steps[0].after.mem;
  EXPECT_EQ(mem.op(mem.last_op(x)).value, 42);
}

TEST(Step, AcquireBlocksWhenLockHeld) {
  System sys;
  auto l = sys.library_lock("l");
  auto t0 = sys.thread();
  t0.acquire(l);
  auto t1 = sys.thread();
  t1.acquire(l);

  auto cfg = initial_config(sys);
  cfg = thread_successors(sys, cfg, 0)[0].after;
  EXPECT_TRUE(thread_successors(sys, cfg, 1).empty())
      << "second acquire must block while the lock is held";
}

TEST(Step, ReleaseByNonHolderBlocks) {
  System sys;
  auto l = sys.library_lock("l");
  auto t0 = sys.thread();
  t0.acquire(l);
  auto t1 = sys.thread();
  t1.release(l);

  auto cfg = initial_config(sys);
  cfg = thread_successors(sys, cfg, 0)[0].after;
  EXPECT_TRUE(thread_successors(sys, cfg, 1).empty());
}

TEST(Step, PopOnEmptyStackReturnsEmptySentinel) {
  System sys;
  auto s = sys.library_stack("s");
  auto t0 = sys.thread();
  auto r = t0.reg("r", 99);
  t0.pop(r, s);

  auto cfg = initial_config(sys);
  const auto steps = thread_successors(sys, cfg, 0);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].after.regs[0][r.id], kStackEmpty);
  // Non-mutating: memory state unchanged except nothing at all.
  std::vector<std::uint64_t> before, after;
  cfg.mem.encode(before);
  steps[0].after.mem.encode(after);
  EXPECT_EQ(before, after);
}

TEST(Step, AcquireWritesTrueToDestination) {
  System sys;
  auto l = sys.library_lock("l");
  auto t0 = sys.thread();
  auto r = t0.reg("r", 0);
  t0.acquire(l, r);

  auto cfg = initial_config(sys);
  const auto steps = thread_successors(sys, cfg, 0);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].after.regs[0][r.id], 1);
}

TEST(Config, EncodingDistinguishesPcAndRegs) {
  System sys;
  auto t0 = sys.thread();
  auto r = t0.reg("r", 0);
  t0.assign(r, c(1));
  t0.assign(r, c(1));

  auto cfg = initial_config(sys);
  const auto e0 = cfg.encode();
  auto cfg1 = thread_successors(sys, cfg, 0)[0].after;
  const auto e1 = cfg1.encode();
  EXPECT_NE(e0, e1);
  EXPECT_NE(rc11::support::hash_words(e0), rc11::support::hash_words(e1));
}

TEST(Config, ToStringShowsRegisters) {
  System sys;
  auto t0 = sys.thread();
  auto r = t0.reg("myreg", 7);
  t0.assign(r, c(1));
  const auto cfg = initial_config(sys);
  EXPECT_NE(cfg.to_string(sys).find("myreg=7"), std::string::npos);
}

}  // namespace
