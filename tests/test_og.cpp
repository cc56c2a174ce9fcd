// Tests for the assertion language (Section 5.1) and the Owicki-Gries
// proof-outline checker (Sections 5.2-5.3): the paper's Figure 3 and
// Figure 7 outlines must check out (Lemma 4), broken outlines must be
// rejected, and the six Hoare rules of Lemma 3 must hold over a lock-client
// harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>

#include "assertions/assertions.hpp"
#include "engine/symmetry.hpp"
#include "explore/explorer.hpp"
#include "og/catalog.hpp"
#include "og/memrules.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "small_programs.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
namespace asrt = rc11::assertions;
using asrt::Assertion;
using lang::c;
using lang::Config;
using lang::Expr;
using lang::IKind;
using lang::Instr;
using lang::System;
using lang::ThreadId;
using memsem::OpKind;
using og::check_outline;
using og::check_triple;

// --- assertion language basics ----------------------------------------------

struct AssertFixture : ::testing::Test {
  System sys;
  lang::LocId x, f, l;
  lang::Reg r0;

  AssertFixture() : sys() {
    x = sys.client_var("x", 0);
    f = sys.client_var("f", 0);
    l = sys.library_lock("l");
    auto t0 = sys.thread();
    r0 = t0.reg("r0");
    t0.store(x, c(1), "x := 1");
    t0.store_rel(f, c(1), "f :=R 1");
    auto t1 = sys.thread();
    auto rr = t1.reg("rr");
    t1.load_acq(rr, f, "rr <-A f");
  }
};

TEST_F(AssertFixture, PossibleAndDefiniteAtInit) {
  const auto cfg = lang::initial_config(sys);
  EXPECT_TRUE(asrt::possible_obs(0, x, 0).eval(sys, cfg));
  EXPECT_FALSE(asrt::possible_obs(0, x, 1).eval(sys, cfg));
  EXPECT_TRUE(asrt::definite_obs(1, x, 0).eval(sys, cfg));
}

TEST_F(AssertFixture, DefiniteBreaksOnConcurrentWrite) {
  auto cfg = lang::initial_config(sys);
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // x := 1
  EXPECT_FALSE(asrt::definite_obs(1, x, 0).eval(sys, cfg))
      << "thread 1's view is stale but no longer definite";
  EXPECT_TRUE(asrt::possible_obs(1, x, 0).eval(sys, cfg));
  EXPECT_TRUE(asrt::possible_obs(1, x, 1).eval(sys, cfg));
  EXPECT_TRUE(asrt::definite_obs(0, x, 1).eval(sys, cfg));
}

TEST_F(AssertFixture, ConditionalObservationTracksReleaseViews) {
  auto cfg = lang::initial_config(sys);
  // Initially vacuous (no write of 1 to f).
  EXPECT_TRUE(asrt::cond_obs(1, f, 1, x, 1).eval(sys, cfg));
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // x := 1
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // f :=R 1
  EXPECT_TRUE(asrt::cond_obs(1, f, 1, x, 1).eval(sys, cfg));
  EXPECT_FALSE(asrt::cond_obs(1, f, 1, x, 0).eval(sys, cfg));
}

TEST_F(AssertFixture, BooleanCombinators) {
  const auto cfg = lang::initial_config(sys);
  const auto t = Assertion::always();
  EXPECT_TRUE((t && t).eval(sys, cfg));
  EXPECT_FALSE((t && !t).eval(sys, cfg));
  EXPECT_TRUE((t || !t).eval(sys, cfg));
  EXPECT_TRUE(asrt::implies(!t, t).eval(sys, cfg));
  EXPECT_FALSE(asrt::implies(t, !t).eval(sys, cfg));
  EXPECT_NE((t && !t).name().find("&&"), std::string::npos);
}

TEST_F(AssertFixture, PcAndRegPredicates) {
  const auto cfg = lang::initial_config(sys);
  EXPECT_TRUE(asrt::at_pc(0, 0).eval(sys, cfg));
  EXPECT_FALSE(asrt::at_pc(0, 1).eval(sys, cfg));
  EXPECT_TRUE(asrt::pc_in(0, {0, 5}).eval(sys, cfg));
  EXPECT_FALSE(asrt::thread_done(0).eval(sys, cfg));
  EXPECT_TRUE(asrt::reg_eq(r0, 0).eval(sys, cfg));
  EXPECT_TRUE(asrt::reg_in(r0, {0, 9}).eval(sys, cfg));
  EXPECT_FALSE(asrt::reg_in(r0, {1, 9}).eval(sys, cfg));
}

TEST_F(AssertFixture, CoveredAndHiddenVar) {
  System s2;
  const auto y = s2.client_var("y", 0);
  auto t0 = s2.thread();
  auto rr = t0.reg("rr");
  t0.cas(rr, y, c(0), c(1), "CAS(y,0,1)");
  auto cfg = lang::initial_config(s2);
  EXPECT_FALSE(asrt::hidden_var(y, 0).eval(s2, cfg)) << "init not covered yet";
  cfg = lang::thread_successors(s2, cfg, 0)[0].after;  // successful CAS
  EXPECT_TRUE(asrt::hidden_var(y, 0).eval(s2, cfg));
  EXPECT_TRUE(asrt::covered_var(y, 1).eval(s2, cfg))
      << "only uncovered write is the CAS result 1, and it is maximal";
  EXPECT_FALSE(asrt::covered_var(y, 0).eval(s2, cfg));
}

// --- outline checking: Figures 3 and 7 --------------------------------------

TEST(Fig3Outline, IsValidWithInterferenceFreedom) {
  auto ex = og::make_fig3();
  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto result = check_outline(ex.sys, ex.outline, opts);
  EXPECT_TRUE(result.valid) << (result.failures.empty()
                                    ? ""
                                    : result.failures[0].obligation + "\n" +
                                          result.failures[0].state_dump);
  EXPECT_GT(result.stats.states, 0u);
  EXPECT_GT(result.obligations_checked, result.stats.states);
}

TEST(Fig3Outline, BrokenPostconditionIsRejected) {
  auto ex = og::make_fig3_broken();
  const auto result = check_outline(ex.sys, ex.outline);
  EXPECT_FALSE(result.valid);
  ASSERT_FALSE(result.failures.empty());
}

TEST(Fig7Outline, IsValidWithInterferenceFreedom) {
  auto ex = og::make_fig7();
  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto result = check_outline(ex.sys, ex.outline, opts);
  EXPECT_TRUE(result.valid) << (result.failures.empty()
                                    ? ""
                                    : result.failures[0].obligation + "\n" +
                                          result.failures[0].state_dump);
}

TEST(Fig7Outline, MutualExclusionAndAgreementHold) {
  // Independent of the outline: explore and check the paper's target
  // properties directly — mutual exclusion and r1 = r2 ∈ {0, 5}.
  auto ex = og::make_fig7();
  const auto result = explore::explore(
      ex.sys, {},
      [&](const System& sys, const Config& cfg) -> std::optional<std::string> {
        const bool cs0 = cfg.pc[0] >= 1 && cfg.pc[0] <= 3;
        const bool cs1 = cfg.pc[1] >= 1 && cfg.pc[1] <= 3;
        (void)sys;
        if (cs0 && cs1) return "mutual exclusion violated";
        return std::nullopt;
      });
  EXPECT_TRUE(result.violations.empty());
  const auto outcomes =
      explore::final_register_values(ex.sys, result, {ex.r1, ex.r2});
  const std::vector<std::vector<lang::Value>> expected{{0, 0}, {5, 5}};
  EXPECT_EQ(outcomes, expected);
}

TEST(Fig7Outline, BrokenOutlineIsRejected) {
  auto ex = og::make_fig7_broken();
  const auto result = check_outline(ex.sys, ex.outline);
  EXPECT_FALSE(result.valid);
}

TEST(OutlineChecker, DetectsInterferenceDistinctFromValidity) {
  // x := 1 || (annotated) skip-like reader: the reader's annotation
  // [x = 0]_1 at its current pc is broken *by thread 0's step*, so with
  // interference checking on, the first reported failure is an interference
  // obligation.
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1), "x := 1");
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.load(r, x, "r <- x");

  og::ProofOutline outline{sys};
  outline.annotate(1, 0, asrt::definite_obs(1, x, 0));
  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto result = check_outline(sys, outline, opts);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.failures[0].obligation.find("interference"),
            std::string::npos)
      << result.failures[0].obligation;
}

TEST(OutlineChecker, GlobalInvariantViolationsAreReported) {
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  og::ProofOutline outline{sys};
  outline.invariant(asrt::definite_obs(0, x, 0));
  const auto result = check_outline(sys, outline);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.failures[0].obligation.find("global invariant"),
            std::string::npos);
}

// --- Lemma 3: Hoare rules for the abstract lock ------------------------------

/// Harness generating a rich set of lock histories: thread 0 runs two
/// acquire/write/release rounds, thread 1 one acquire/read/release round.
struct Lemma3Fixture : ::testing::Test {
  System sys;
  lang::LocId x, l;
  lang::Reg r1;

  Lemma3Fixture() : sys() {
    x = sys.client_var("x", 0);
    l = sys.library_lock("l");
    auto t0 = sys.thread();
    t0.acquire(l, std::nullopt, "acquire");
    t0.store(x, c(1), "x := 1");
    t0.release(l, "release");
    t0.acquire(l, std::nullopt, "acquire");
    t0.store(x, c(2), "x := 2");
    t0.release(l, "release");
    auto t1 = sys.thread();
    r1 = t1.reg("r1");
    t1.acquire(l, std::nullopt, "acquire");
    t1.load(r1, x, "r1 <- x");
    t1.release(l, "release");
  }

  static bool is_acquire(ThreadId t, const Instr& in, ThreadId want) {
    return t == want && in.kind == IKind::LockAcquire;
  }
  static bool is_lock_method(ThreadId t, const Instr& in, ThreadId want) {
    return t == want && (in.kind == IKind::LockAcquire ||
                         in.kind == IKind::LockRelease);
  }
};

TEST_F(Lemma3Fixture, Rule1_HiddenReleaseForcesLaterVersion) {
  // {H_{l.release_u}} Acquire(v) {v > u + 1} with u = 2.
  const auto result = check_triple(
      sys, asrt::lock_hidden(l, OpKind::LockRelease, 2),
      [](ThreadId t, const Instr& in) {
        return in.kind == IKind::LockAcquire && (void(t), true);
      },
      [&](const System&, const Config&, const Config& after) {
        const auto v = after.mem.op(after.mem.last_op(l)).value;
        return v > 3;
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u) << "rule must not hold vacuously";
}

TEST_F(Lemma3Fixture, Rule2_HiddenIsStableUnderLockMethods) {
  // {H_{l.release_u}} m(v) {H_{l.release_u}} with u = 2.
  const auto hidden = asrt::lock_hidden(l, OpKind::LockRelease, 2);
  const auto result = check_triple(
      sys, hidden,
      [](ThreadId, const Instr& in) {
        return in.kind == IKind::LockAcquire || in.kind == IKind::LockRelease;
      },
      [&](const System& s, const Config&, const Config& after) {
        return hidden.eval(s, after);
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u);
}

TEST_F(Lemma3Fixture, Rule3_DefiniteReleaseYieldsNextAcquire) {
  // {[l.release_u]_t} Acquire(v)_t {[l.acquire_{u+1}]_t} with t = 0, u = 2:
  // thread 0's own view sits at its release_2 when it re-acquires (provided
  // thread 1 has not intervened), and the next acquire is then acquire_3.
  const auto result = check_triple(
      sys, asrt::lock_definite(0, l, OpKind::LockRelease, 2),
      [](ThreadId t, const Instr& in) { return is_acquire(t, in, 0); },
      [&](const System& s, const Config&, const Config& after) {
        return asrt::lock_definite(0, l, OpKind::LockAcquire, 3).eval(s, after);
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u);
}

TEST_F(Lemma3Fixture, Rule4_DefiniteValueStableUnderForeignLockMethods) {
  // {[x = u]_t} m(v)_{t'} {[x = u]_t} with t = 0, t' = 1, u = 1.
  const auto def = asrt::definite_obs(0, x, 1);
  const auto result = check_triple(
      sys, def,
      [](ThreadId t, const Instr& in) { return is_lock_method(t, in, 1); },
      [&](const System& s, const Config&, const Config& after) {
        return def.eval(s, after);
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u);
}

TEST_F(Lemma3Fixture, Rule5_ConditionalBecomesDefiniteOnSync) {
  // {⟨l.release_u⟩[x = n]_t} Acquire(v)_t {v = u + 1 ⇒ [x = n]_t}
  // with t = 1, u = 2, n = 1.
  const auto result = check_triple(
      sys, asrt::lock_cond_obs(1, l, 2, x, 1),
      [](ThreadId t, const Instr& in) { return is_acquire(t, in, 1); },
      [&](const System& s, const Config&, const Config& after) {
        const auto v = after.mem.op(after.mem.last_op(l)).value;
        return v != 3 || asrt::definite_obs(1, x, 1).eval(s, after);
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u);
}

TEST_F(Lemma3Fixture, Rule6_ReleasePublishesDefiniteValue) {
  // {¬⟨l.release_u⟩_{t'} ∧ [x = v]_t} Release(u)_t {⟨l.release_u⟩[x = v]_{t'}}
  // with t = 0, t' = 1, u = 2, v = 1.
  const auto pre =
      !asrt::lock_possible_release(1, l, 2) && asrt::definite_obs(0, x, 1);
  const auto result = check_triple(
      sys, pre,
      [](ThreadId t, const Instr& in) {
        return t == 0 && in.kind == IKind::LockRelease;
      },
      [&](const System& s, const Config&, const Config& after) {
        const auto v = after.mem.op(after.mem.last_op(l)).value;
        return v != 2 || asrt::lock_cond_obs(1, l, 2, x, 1).eval(s, after);
      });
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.instances_checked, 0u);
}

TEST_F(Lemma3Fixture, SanityNegativeRuleFails) {
  // A deliberately wrong rule: {true} Acquire(v) {v = 1} fails because the
  // second and third acquires take larger versions.
  const auto result = check_triple(
      sys, Assertion::always(),
      [](ThreadId, const Instr& in) { return in.kind == IKind::LockAcquire; },
      [&](const System&, const Config&, const Config& after) {
        return after.mem.op(after.mem.last_op(l)).value == 1;
      });
  EXPECT_FALSE(result.valid);
}


// --- Section 5.2 memory-operation rule catalogue (M1-M9) ---------------------

TEST(MemoryRules, AllRulesHoldNonVacuously) {
  const auto results = og::check_memory_rules();
  ASSERT_EQ(results.size(), 9u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.valid) << r.rule << ": " << r.description;
    EXPECT_GT(r.instances, 0u) << r.rule << " held vacuously";
  }
}

TEST(MemoryRules, CatalogueIsOrdered) {
  const auto results = og::check_memory_rules();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].rule, "M" + std::to_string(i + 1));
    EXPECT_FALSE(results[i].description.empty());
  }
}


// --- a further verified outline: the lock-protected counter -------------------

/// Two threads each perform acquire; r <- x; x := r + 1; release under the
/// abstract lock, with the acquire version recorded (rl in {1, 3} as in
/// Fig. 7).  The outline pins the counter value to the round: the first
/// holder sees x = 0 and leaves x = 1, the second sees x = 1 and leaves 2.
struct CounterExample {
  System sys;
  lang::LocId x = 0;
  og::ProofOutline outline{System{}};
};

CounterExample make_counter_outline() {
  CounterExample ex;
  System& sys = ex.sys;
  const auto x = sys.client_var("x", 0);
  ex.x = x;
  const auto l = sys.library_lock("l");
  struct T {
    lang::Reg rl, r;
  };
  std::vector<T> regs;
  for (int i = 0; i < 2; ++i) {
    auto tb = sys.thread();
    T t{tb.reg("rl"), tb.reg("r")};
    tb.acquire_version(l, t.rl, "rl <- acquire");
    tb.load(t.r, x, "r <- x");
    tb.store(x, Expr{t.r} + c(1), "x := r + 1");
    tb.release(l, "release");
    regs.push_back(t);
  }

  og::ProofOutline outline{sys};
  outline.invariant(
      !(asrt::pc_in(0, {1, 2, 3}) && asrt::pc_in(1, {1, 2, 3})) &&
      asrt::implies(asrt::pc_in(0, {1, 2, 3, 4}),
                    asrt::reg_in(regs[0].rl, {1, 3})) &&
      asrt::implies(asrt::pc_in(1, {1, 2, 3, 4}),
                    asrt::reg_in(regs[1].rl, {1, 3})));
  for (ThreadId i = 0; i < 2; ++i) {
    const auto first = asrt::reg_eq(regs[i].rl, 1);
    const auto second = asrt::reg_eq(regs[i].rl, 3);
    const auto held = asrt::lock_held_by(i, l);
    outline.annotate(i, 1,
                     held && asrt::implies(first, asrt::definite_obs(i, x, 0)) &&
                         asrt::implies(second, asrt::definite_obs(i, x, 1)));
    outline.annotate(
        i, 2,
        held &&
            asrt::implies(first, asrt::definite_obs(i, x, 0) &&
                                     asrt::reg_eq(regs[i].r, 0)) &&
            asrt::implies(second, asrt::definite_obs(i, x, 1) &&
                                      asrt::reg_eq(regs[i].r, 1)));
    outline.annotate(i, 3,
                     held && asrt::implies(first, asrt::definite_obs(i, x, 1)) &&
                         asrt::implies(second, asrt::definite_obs(i, x, 2)));
    outline.postcondition(
        i, asrt::implies(second, asrt::definite_obs(i, x, 2)));
  }
  ex.outline = std::move(outline);
  return ex;
}

TEST(CounterOutline, LockProtectedIncrementsVerify) {
  auto ex = make_counter_outline();
  const System& sys = ex.sys;
  const auto x = ex.x;
  const og::ProofOutline& outline = ex.outline;

  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto result = check_outline(sys, outline, opts);
  EXPECT_TRUE(result.valid) << (result.failures.empty()
                                    ? ""
                                    : result.failures[0].obligation + "\n" +
                                          result.failures[0].state_dump);

  // Ground truth: both increments always land.
  const auto run = explore::explore(sys);
  for (const auto& cfg : run.final_configs) {
    EXPECT_EQ(cfg.mem.op(cfg.mem.last_op(x)).value, 2);
  }
}


TEST(OutlineChecker, FailureTracesWhenRequested) {
  auto ex = og::make_fig3_broken();
  og::OutlineCheckOptions opts;
  opts.track_traces = true;
  const auto result = check_outline(ex.sys, ex.outline, opts);
  ASSERT_FALSE(result.valid);
  ASSERT_FALSE(result.failures.empty());
  ASSERT_FALSE(result.failures[0].trace.empty())
      << "a counterexample run must accompany the failed obligation";
  EXPECT_EQ(result.failures[0].trace.front(), "init");
}

// --- read sets: the interference skip is exact -------------------------------
//
// check_outline skips an interference obligation when the step's write set
// (acting thread, plus the location it writes) misses the annotation's read
// set.  The property test checks every read set against the semantics; the
// agreement test checks the skipping checker against the full loop.

/// The write set of a step: its thread, plus the location it writes.
std::optional<lang::LocId> written(const lang::Step& step) {
  if (!memsem::writes_location(step.meta.access)) return std::nullopt;
  return step.meta.loc;
}

/// The values a program's reachable states mention (operation values and
/// register contents), plus 0 and 1 — the "small values" the factories are
/// instantiated over.
std::vector<lang::Value> values_of(const System& sys) {
  std::set<lang::Value> values{0, 1};
  explore::ReachOptions ropts;
  (void)explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t, std::span<const lang::Step>) {
        for (std::size_t id = 0; id < cfg.mem.num_ops(); ++id) {
          values.insert(cfg.mem.op(static_cast<memsem::OpId>(id)).value);
        }
        for (const auto& regs : cfg.regs) {
          values.insert(regs.begin(), regs.end());
        }
        return true;
      });
  return {values.begin(), values.end()};
}

/// Every assertion factory over every thread, location, register, pc and
/// value of `values`, and every combinator over pairs of those.
std::vector<Assertion> assertion_pool(const System& sys,
                                      const std::vector<lang::Value>& values) {
  std::vector<Assertion> pool{Assertion::always()};
  const auto n_locs = static_cast<lang::LocId>(sys.locations().size());
  const OpKind kinds[] = {OpKind::LockAcquire, OpKind::LockRelease,
                          OpKind::Init};
  for (lang::LocId x = 0; x < n_locs; ++x) {
    pool.push_back(asrt::lock_hidden_init(x));
    pool.push_back(asrt::stack_pop_empty_only(x));
    for (const auto v : values) {
      pool.push_back(asrt::covered_var(x, v));
      pool.push_back(asrt::hidden_var(x, v));
      pool.push_back(asrt::stack_can_pop(x, v));
      for (const auto k : kinds) {
        pool.push_back(asrt::lock_covered(x, k, v));
        pool.push_back(asrt::lock_hidden(x, k, v));
      }
      for (lang::LocId y = 0; y < n_locs; ++y) {
        for (const auto w : values) {
          pool.push_back(asrt::stack_cond_obs(x, v, y, w));
        }
      }
    }
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      pool.push_back(asrt::lock_held_by(t, x));
      for (const auto v : values) {
        pool.push_back(asrt::possible_obs(t, x, v));
        pool.push_back(asrt::definite_obs(t, x, v));
        pool.push_back(asrt::lock_possible_release(t, x, v));
        for (const auto k : kinds) {
          pool.push_back(asrt::lock_definite(t, x, k, v));
        }
        for (lang::LocId y = 0; y < n_locs; ++y) {
          for (const auto w : values) {
            pool.push_back(asrt::cond_obs(t, x, v, y, w));
            pool.push_back(asrt::lock_cond_obs(t, x, v, y, w));
          }
        }
      }
    }
  }
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    pool.push_back(asrt::thread_done(t));
    const auto terminal = static_cast<std::uint32_t>(sys.code(t).size());
    for (std::uint32_t pc = 0; pc <= terminal; ++pc) {
      pool.push_back(asrt::at_pc(t, pc));
      pool.push_back(asrt::pc_in(t, {pc, pc + 1}));
    }
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      for (const auto v : values) {
        pool.push_back(asrt::reg_eq(lang::Reg{t, r}, v));
        pool.push_back(asrt::reg_in(lang::Reg{t, r}, {v, v + 1}));
      }
    }
  }
  // Combinators over pairs that mix factories from different families.
  const std::size_t base = pool.size();
  for (std::size_t i = 0; i < base; ++i) {
    const Assertion& a = pool[i];
    const Assertion& b = pool[(i * 7919 + base / 2) % base];
    switch (i % 4) {
      case 0: pool.push_back(a && b); break;
      case 1: pool.push_back(a || b); break;
      case 2: pool.push_back(!a); break;
      default: pool.push_back(asrt::implies(a, b)); break;
    }
  }
  return pool;
}

/// For every reachable (state, step) and every pool assertion whose read set
/// the step's write set misses: the assertion keeps its value across the
/// step.  Returns the number of (state, step, assertion) triples checked.
std::uint64_t expect_read_sets_sound(const System& sys,
                                     const std::string& what) {
  const auto pool = assertion_pool(sys, values_of(sys));
  std::uint64_t checked = 0;
  std::vector<char> before(pool.size());
  explore::ReachOptions ropts;
  (void)explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t, std::span<const lang::Step> steps) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          before[i] = pool[i].eval(sys, cfg) ? 1 : 0;
        }
        for (const auto& step : steps) {
          const auto loc = written(step);
          for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i].footprint().meets(step.thread, loc)) continue;
            checked += 1;
            const bool after = pool[i].eval(sys, step.after);
            if ((before[i] != 0) != after) {
              ADD_FAILURE() << what << ": a step of t" << step.thread
                            << " writing "
                            << (loc ? "loc" + std::to_string(*loc) : "nothing")
                            << " changes " << pool[i].name()
                            << ", whose read set misses it\n"
                            << cfg.to_string(sys);
              return false;
            }
          }
        }
        return true;
      });
  return checked;
}

/// A small program with two interchangeable threads (a ticket lock round
/// each), so --symmetry has orbits to fold.
constexpr const char* kSymmetricTickets = R"(
var x = 0;
var library nt = 0;
var library sn = 0;
thread a {
  reg ma; reg sa; reg ra;
  ma <- FAI(nt);
  do { sa <-A sn; } until (ma == sa);
  ra <- x;
  x := ra + 1;
  sn :=R sa + 1;
}
thread b {
  reg mb; reg sb; reg rb;
  mb <- FAI(nt);
  do { sb <-A sn; } until (mb == sb);
  rb <- x;
  x := rb + 1;
  sn :=R sb + 1;
}
outline {
  invariant !(pc(a) in {3, 4, 5} && pc(b) in {3, 4, 5});
  at a 3: pc(a) == 3 ==> (ma == 0 ==> definite(a, x, 0))
                        && (ma == 1 ==> definite(a, x, 1));
  at a 4: (ma == 0 ==> ra == 0) && (ma == 1 ==> ra == 1);
  at a 5: pc(a) == 5 ==> (ma == 0 ==> definite(a, x, 1))
                        && (ma == 1 ==> definite(a, x, 2));
  at b 3: pc(b) == 3 ==> (mb == 0 ==> definite(b, x, 0))
                        && (mb == 1 ==> definite(b, x, 1));
  at b 4: (mb == 0 ==> rb == 0) && (mb == 1 ==> rb == 1);
  at b 5: pc(b) == 5 ==> (mb == 0 ==> definite(b, x, 1))
                        && (mb == 1 ==> definite(b, x, 2));
  post a: ma in {0, 1} && (ma == 1 ==> definite(a, x, 2));
  post b: mb in {0, 1} && (mb == 1 ==> definite(b, x, 2));
}
)";

struct NamedOutline {
  std::string name;
  System sys;
  og::ProofOutline outline;
};

parser::ParsedProgram corpus_program(const std::string& file) {
  return parser::parse_file(std::string(RC11_SRC_DIR) + "/tools/programs/" +
                            file);
}

/// The shipped outlines: Figs. 3 and 7 with their broken variants, the
/// lock-protected counter, and the two outlines of the program corpus.
std::vector<NamedOutline> corpus_outlines() {
  std::vector<NamedOutline> out;
  for (auto [name, ex] : {std::pair{"fig3", og::make_fig3()},
                          std::pair{"fig3_broken", og::make_fig3_broken()}}) {
    out.push_back({name, ex.sys, ex.outline});
  }
  for (auto [name, ex] : {std::pair{"fig7", og::make_fig7()},
                          std::pair{"fig7_broken", og::make_fig7_broken()}}) {
    out.push_back({name, ex.sys, ex.outline});
  }
  auto counter = make_counter_outline();
  out.push_back({"counter", counter.sys, counter.outline});
  for (const char* file : {"mp_verified.rc11", "mp_broken_outline.rc11"}) {
    auto p = corpus_program(file);
    out.push_back({file, p.sys, *p.outline});
  }
  return out;
}

TEST(ReadSets, FactoriesAndCombinatorsCoverWhatTheyRead) {
  // Spot checks of the declared read sets.
  const auto cond = asrt::cond_obs(1, 2, 5, 3, 7);
  EXPECT_FALSE(cond.footprint().everything);
  EXPECT_EQ(cond.footprint().threads, std::vector<ThreadId>{1});
  EXPECT_EQ(cond.footprint().locations, (std::vector<lang::LocId>{2, 3}));
  EXPECT_EQ(asrt::lock_held_by(0, 4).footprint().locations,
            std::vector<lang::LocId>{4});
  EXPECT_TRUE(asrt::lock_held_by(0, 4).footprint().threads.empty());
  EXPECT_EQ(asrt::reg_in(lang::Reg{2, 0}, {1}).footprint().threads,
            std::vector<ThreadId>{2});
  const auto always = Assertion::always();
  EXPECT_FALSE(always.footprint().meets(0, 0));
  const auto both = asrt::at_pc(3, 0) && !asrt::covered_var(1, 0);
  EXPECT_EQ(both.footprint().threads, std::vector<ThreadId>{3});
  EXPECT_EQ(both.footprint().locations, std::vector<lang::LocId>{1});
  EXPECT_TRUE(both.footprint().meets(3, std::nullopt));
  EXPECT_TRUE(both.footprint().meets(0, 1));
  EXPECT_FALSE(both.footprint().meets(0, 2));
  EXPECT_FALSE(both.footprint().meets(0, std::nullopt));
  // pred() has no known read set: it meets every write set, and so do the
  // formulas built over it.
  const auto opaque =
      asrt::pred("opaque", [](const System&, const Config&) { return true; });
  EXPECT_TRUE(opaque.footprint().meets(0, std::nullopt));
  EXPECT_TRUE((asrt::at_pc(0, 0) || opaque).footprint().meets(7, std::nullopt));
}

TEST(ReadSets, StepsOutsideTheReadSetLeaveAssertionsUnchanged) {
  std::uint64_t checked = 0;
  for (auto& o : corpus_outlines()) {
    checked += expect_read_sets_sound(o.sys, o.name);
    if (HasFailure()) return;
  }
  checked += expect_read_sets_sound(
      parser::parse_program(kSymmetricTickets).sys, "symmetric tickets");
  for (const auto& g : testgen::rmw_diagonal_programs()) {
    checked += expect_read_sets_sound(g.sys, g.description);
    if (HasFailure()) return;
  }
  EXPECT_GT(checked, 500'000u) << "the property must not hold vacuously";
}

/// What an outline check reports, for comparison.
struct Report {
  bool valid = true;
  std::vector<std::string> failures;
  std::uint64_t obligations = 0;
};

Report report_of(const og::OutlineCheckResult& r) {
  Report out{r.valid, {}, r.obligations_checked};
  for (const auto& f : r.failures) out.failures.push_back(f.obligation);
  return out;
}

/// The outline check without read sets, as a reference: every annotation of
/// every other thread against every enabled step, orbit members included,
/// with the step labels visit_reachable builds.
Report reference_check(const System& sys, const og::ProofOutline& outline,
                       const og::OutlineCheckOptions& o) {
  explore::ReachOptions ropts;
  ropts.num_threads = o.num_threads;
  ropts.por = o.por;
  ropts.symmetry = o.symmetry;
  ropts.want_labels = true;
  std::optional<engine::SymmetryReducer> reducer;
  if (o.symmetry) reducer.emplace(sys);
  const bool orbit = reducer.has_value() && reducer->symmetric();
  std::mutex mu;
  Report report;
  (void)explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t, std::span<const lang::Step> steps) {
        std::vector<std::string> failures;
        std::uint64_t checked = 0;
        bool stop = false;
        const auto check = [&](const Config& m,
                               std::span<const lang::Step> ms) {
          const auto fail = [&](std::string what) {
            failures.push_back(std::move(what));
            stop = stop || o.stop_at_first_failure;
            return o.stop_at_first_failure;
          };
          checked += 1;
          if (!outline.global_invariant().eval(sys, m) &&
              fail("global invariant " + outline.global_invariant().name())) {
            return;
          }
          for (ThreadId t = 0; t < sys.num_threads(); ++t) {
            checked += 1;
            const auto& ann = outline.at(t, m.pc[t]);
            if (!ann.eval(sys, m) &&
                fail(support::concat("annotation at t", t, " pc=", m.pc[t],
                                     ": ", ann.name()))) {
              return;
            }
          }
          if (!o.check_interference) return;
          for (std::size_t i = 0; i < ms.size(); ++i) {
            for (ThreadId t = 0; t < sys.num_threads(); ++t) {
              if (t == ms[i].thread) continue;
              for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
                checked += 1;
                const auto& ann = outline.at(t, pc);
                if (ann.eval(sys, m) && !ann.eval(sys, ms[i].after) &&
                    fail(support::concat("interference: step [", steps[i].label,
                                         "] breaks t", t, " pc=", pc, ": ",
                                         ann.name()))) {
                  return;
                }
              }
            }
          }
        };
        if (orbit) {
          std::vector<lang::Step> psteps;
          reducer->for_each_orbit(
              cfg, [&](const Config& member, const engine::ThreadPerm& perm) {
                if (stop) return;
                psteps.clear();
                for (const auto& step : steps) {
                  psteps.push_back(
                      lang::Step{perm[step.thread], {},
                                 reducer->permuted(step.after, perm),
                                 step.meta});
                }
                check(member, psteps);
              });
        } else {
          check(cfg, steps);
        }
        std::lock_guard<std::mutex> lock(mu);
        report.obligations += checked;
        if (!failures.empty()) report.valid = false;
        for (auto& f : failures) report.failures.push_back(std::move(f));
        return !stop;
      });
  return report;
}

/// An outline over `sys` built from the assertion pool: each program point
/// gets one pool member, picked by a fixed stride, so the generated outlines
/// mix valid and failing annotations of every family.
og::ProofOutline generated_outline(const System& sys, std::size_t seed) {
  const auto pool = assertion_pool(sys, values_of(sys));
  og::ProofOutline outline{sys};
  std::size_t k = seed;
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
      k = (k * 2654435761u + 40503u) % pool.size();
      outline.annotate(t, pc, pool[k]);
    }
  }
  return outline;
}

/// Compares check_outline with the reference loop under every option
/// combination; returns the number of interference failures seen.
std::size_t expect_agreement(const System& sys, const og::ProofOutline& outline,
                             const std::string& what) {
  std::size_t interference = 0;
  for (const bool por : {false, true}) {
    for (const bool symmetry : {false, true}) {
      og::OutlineCheckOptions o;
      o.por = por;
      o.symmetry = symmetry;
      const std::string config =
          what + (por ? " --por" : "") + (symmetry ? " --symmetry" : "");
      // One worker: reports are deterministic and must match exactly.
      Report full;
      for (const bool stop : {true, false}) {
        o.stop_at_first_failure = stop;
        o.num_threads = 1;
        const auto want = reference_check(sys, outline, o);
        const auto got = report_of(check_outline(sys, outline, o));
        EXPECT_EQ(got.valid, want.valid) << config;
        EXPECT_EQ(got.failures, want.failures) << config;
        EXPECT_EQ(got.obligations, want.obligations) << config;
        if (!stop) full = want;
      }
      for (const auto& f : full.failures) {
        if (f.rfind("interference:", 0) == 0) ++interference;
      }
      // Four workers: the failure set is schedule-independent without a
      // stop, but the member that represents an orbit is not (the label a
      // permuted member cites comes from it), so under symmetry only the
      // counts are compared.  A stop-at-first run finds some failure of the
      // full set.
      o.num_threads = 4;
      o.stop_at_first_failure = false;
      auto want = reference_check(sys, outline, o);
      auto got = report_of(check_outline(sys, outline, o));
      EXPECT_EQ(got.valid, full.valid) << config << " at 4 workers";
      EXPECT_EQ(got.obligations, full.obligations) << config << " at 4 workers";
      EXPECT_EQ(want.obligations, full.obligations)
          << config << " at 4 workers";
      EXPECT_EQ(got.failures.size(), full.failures.size()) << config;
      if (!symmetry) {
        std::sort(got.failures.begin(), got.failures.end());
        std::sort(want.failures.begin(), want.failures.end());
        EXPECT_EQ(got.failures, want.failures) << config << " at 4 workers";
      }
      o.stop_at_first_failure = true;
      got = report_of(check_outline(sys, outline, o));
      EXPECT_EQ(got.valid, full.valid) << config << " at 4 workers, stop";
      if (!symmetry) {
        for (const auto& f : got.failures) {
          EXPECT_NE(std::find(full.failures.begin(), full.failures.end(), f),
                    full.failures.end())
              << config << " at 4 workers, stop: " << f;
        }
      }
    }
  }
  return interference;
}

TEST(ReadSets, SkippingCheckerAgreesWithTheFullLoopOnCorpusOutlines) {
  for (const auto& o : corpus_outlines()) {
    expect_agreement(o.sys, o.outline, o.name);
    if (HasFailure()) return;
  }
  const auto sym = parser::parse_program(kSymmetricTickets);
  ASSERT_TRUE(engine::SymmetryReducer(sym.sys).symmetric());
  expect_agreement(sym.sys, *sym.outline, "symmetric tickets");
}

TEST(ReadSets, SkippingCheckerAgreesWithTheFullLoopOnGeneratedOutlines) {
  std::size_t interference = 0;
  std::size_t seed = 0;
  const auto programs = testgen::rmw_diagonal_programs();
  // Every generated program, each with two generated outlines.
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      interference += expect_agreement(
          programs[i].sys, generated_outline(programs[i].sys, ++seed),
          programs[i].description);
      if (HasFailure()) return;
    }
  }
  const auto sym = parser::parse_program(kSymmetricTickets);
  for (int k = 0; k < 4; ++k) {
    interference += expect_agreement(
        sym.sys, generated_outline(sym.sys, ++seed), "symmetric tickets");
  }
  EXPECT_GT(interference, 0u)
      << "the generated outlines must exercise interference failures";
}

}  // namespace
