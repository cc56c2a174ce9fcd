// Resource governance and checkpoint/resume: budgets must stop runs with
// the honest StopReason at every thread count and POR setting, partial
// results must stay valid, injected faults must degrade gracefully (no
// deadlock, no lie about why the run ended), and a checkpointed run resumed
// later must reach verdicts identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/budget.hpp"
#include "engine/checkpoint.hpp"
#include "engine/transition_system.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using engine::StopReason;
using explore::ExploreOptions;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

/// A temp-file path that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<lang::Reg> all_regs(const lang::System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

// --- StopReason / FaultPlan parsing -----------------------------------------

TEST(Budget, StopReasonNamesRoundTrip) {
  for (const auto reason :
       {StopReason::Complete, StopReason::StateCap, StopReason::MemCap,
        StopReason::Deadline, StopReason::Interrupted,
        StopReason::InjectedFault, StopReason::EpisodeCap}) {
    EXPECT_EQ(engine::stop_reason_from_string(engine::to_string(reason)),
              reason);
  }
  EXPECT_THROW((void)engine::stop_reason_from_string("out-of-quota"),
               support::Error);
  EXPECT_THROW((void)engine::stop_reason_from_string(""), support::Error);
}

TEST(Budget, FaultPlanParses) {
  const auto insert = engine::FaultPlan::parse("insert:7");
  EXPECT_EQ(insert.kind, engine::FaultPlan::Kind::FailInsert);
  EXPECT_EQ(insert.at_state, 7u);

  const auto stall = engine::FaultPlan::parse("stall:12:250");
  EXPECT_EQ(stall.kind, engine::FaultPlan::Kind::Stall);
  EXPECT_EQ(stall.at_state, 12u);
  EXPECT_EQ(stall.stall_ms, 250u);

  const auto mem = engine::FaultPlan::parse("mem:3");
  EXPECT_EQ(mem.kind, engine::FaultPlan::Kind::TripMem);
  EXPECT_EQ(mem.at_state, 3u);
}

TEST(Budget, FaultPlanRejectsMalformedSpecs) {
  // A plan holds exactly one spec, so a second one is malformed too.
  for (const char* bad :
       {"", "insert", "insert:", "insert:0", "insert:x", "stall:5", "stall:5:",
        "stall:0:10", "mem:-1", "oom:5", "insert:5:9", ",", "insert:5,",
        "insert:5,mem:9", "insert:5,insert:6", "stall:5:10,mem:2"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)engine::FaultPlan::parse(bad), support::Error);
  }
}

TEST(Budget, FaultPlanRejectsDuplicateSpecs) {
  // Repeating a spec, or listing one of each kind, is no way around the
  // one-spec rule.
  for (const char* bad :
       {"insert:5,insert:5", "mem:3,mem:3", "stall:2:10,stall:2:10",
        "stall:1:10,insert:2", "mem:4,stall:4:10",
        "insert:1,stall:2:10,mem:3"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)engine::FaultPlan::parse(bad), support::Error);
  }
}

// --- Truncation exactness under contention ----------------------------------

// Every (threads, por) combination must stop for the *same* reason and leave
// partial stats that are internally consistent: the state cap admits at most
// max_states expansions, and every expanded state was really counted.
TEST(Budget, StateCapIdenticalAcrossThreadsAndPor) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " workers=" + std::to_string(workers));
      ExploreOptions opts;
      opts.max_states = 20;  // below the 47 (full) / 39 (POR) reachable
      opts.num_threads = workers;
      opts.por = por;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stop, StopReason::StateCap);
      EXPECT_TRUE(result.truncated);
      EXPECT_GE(result.stats.states, 1u);
      EXPECT_LE(result.stats.states, opts.max_states);
      EXPECT_GE(result.stats.transitions, result.stats.states - 1);
      EXPECT_GT(result.stats.peak_frontier, 0u);
      EXPECT_GT(result.stats.visited_bytes, 0u);
    }
  }
}

TEST(Budget, MemCapIdenticalAcrossThreadsAndPor) {
  // lock_client_seqlock has enough states that the every-32-claims probe
  // always fires before the frontier drains.
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  for (const bool por : {false, true}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " workers=" + std::to_string(workers));
      ExploreOptions opts;
      opts.max_visited_bytes = 64;  // absurdly small: first probe trips
      opts.num_threads = workers;
      opts.por = por;
      const auto result = explore::explore(program.sys, opts);
      EXPECT_EQ(result.stop, StopReason::MemCap);
      EXPECT_TRUE(result.truncated);
      EXPECT_GE(result.stats.states, 1u);
      EXPECT_GT(result.stats.visited_bytes, opts.max_visited_bytes);
    }
  }
}

// Every governance probe armed but never tripping — a live cancel token, a
// huge memory budget, a far deadline — explores exactly the plain space.
// bench/bench_budget times the same three pairs.
TEST(Budget, ArmedButUntrippedBudgetsExploreThePlainSpace) {
  struct Case {
    const char* name;
    lang::System sys;
    std::uint64_t states;
  };
  locks::TicketLock lock;
  const Case cases[] = {
      {"ticket_worker_3x2w4",
       locks::instantiate(locks::worker_client(3, 2, 4), lock), 25003},
      {"ticket_worker_2x4w8",
       locks::instantiate(locks::worker_client(2, 4, 8), lock), 10195},
      {"ticket_mgc_2x2", locks::instantiate(locks::mgc_client(2, 2), lock),
       331},
  };
  engine::CancelToken token;
  for (const auto& c : cases) {
    ExploreOptions governed;
    governed.cancel = &token;
    governed.max_visited_bytes = std::uint64_t{1} << 40;
    governed.deadline_ms = 24ull * 60 * 60 * 1000;
    const auto plain = explore::explore(c.sys);
    const auto armed = explore::explore(c.sys, governed);
    EXPECT_EQ(plain.stats.states, c.states) << c.name;
    EXPECT_EQ(armed.stats.states, c.states) << c.name;
    EXPECT_EQ(armed.stats.transitions, plain.stats.transitions) << c.name;
    EXPECT_EQ(armed.stop, StopReason::Complete) << c.name;
  }
}

TEST(Budget, PreCancelledTokenStopsImmediately) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  engine::CancelToken token;
  token.cancel();
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.cancel = &token;
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::Interrupted);
    EXPECT_TRUE(result.truncated);
    EXPECT_LT(result.stats.states, 47u);
  }
}

TEST(Budget, CancelMidRunDrainsWorkers) {
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  engine::CancelToken token;
  ExploreOptions opts;
  opts.num_threads = 4;
  opts.cancel = &token;
  // Hold one worker at the 10th claim so the cancel lands mid-run; peers
  // must keep draining and the join must not deadlock.
  opts.fault = engine::FaultPlan::parse("stall:10:100");
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const auto result = explore::explore(program.sys, opts);
  canceller.join();
  EXPECT_TRUE(result.truncated);
  // The stall makes Interrupted the overwhelmingly likely reason, but a
  // racing decision is fine as long as the run stopped honestly.
  EXPECT_NE(result.stop, StopReason::Complete);
}

// --- Fault injection --------------------------------------------------------

TEST(Budget, InjectedInsertFaultReportsItself) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.fault = engine::FaultPlan::parse("insert:10");
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::InjectedFault);
    EXPECT_LT(result.stats.states, 47u);
  }
}

TEST(Budget, InjectedMemFaultReportsMemCap) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  ExploreOptions opts;
  opts.fault = engine::FaultPlan::parse("mem:5");
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::MemCap);
}

TEST(Budget, StallFaultAloneStillCompletesExactly) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto regs = all_regs(program.sys);
  const auto baseline = explore::explore(program.sys, ExploreOptions{});
  ASSERT_EQ(baseline.stop, StopReason::Complete);

  ExploreOptions opts;
  opts.num_threads = 4;
  opts.fault = engine::FaultPlan::parse("stall:10:50");
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::Complete);
  EXPECT_EQ(result.stats.states, baseline.stats.states);
  EXPECT_EQ(explore::final_register_values(program.sys, result, regs),
            explore::final_register_values(program.sys, baseline, regs));
}

TEST(Budget, StallPlusDeadlineTripsDeadlineDeterministically) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.deadline_ms = 5;
    // The stalled claim probes the clock unconditionally after sleeping
    // past the deadline, so the reason is deterministic.
    opts.fault = engine::FaultPlan::parse("stall:10:100");
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::Deadline);
    EXPECT_TRUE(result.truncated);
  }
}

// Satellite regression for the deadline-probe granularity fix: a stall far
// longer than the deadline must not delay the Deadline decision to the end
// of the stall — the sliced sleep probes the clock between slices.
TEST(Budget, LongStallCannotOvershootDeadline) {
  const auto program = parser::parse_file(prog("lock_client_seqlock.rc11"));
  ExploreOptions opts;
  opts.deadline_ms = 40;
  opts.fault = engine::FaultPlan::parse("stall:10:20000");
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = explore::explore(program.sys, opts);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_EQ(result.stop, StopReason::Deadline);
  EXPECT_TRUE(result.truncated);
  // Well under the 20s stall; generous slack for loaded CI machines.
  EXPECT_LT(elapsed_ms, 5000);
}

// What makes the governor cheap, counted instead of timed: with every probe
// dimension armed (bench/bench_budget's governed settings — a live token, a
// 1 TiB memory budget, a 24 h deadline), claim() reads the clock and the
// visited-set bytes once per kBudgetCheckInterval claims, plus once for the
// first claim's deadline probe, from one worker or several.
TEST(Budget, ExpensiveProbesStayOffTheHotPath) {
  constexpr std::uint64_t kClaims = 100'000;
  engine::Budget governed;
  governed.max_visited_bytes = std::uint64_t{1} << 40;
  governed.deadline_ms = 24ull * 60 * 60 * 1000;
  engine::CancelToken token;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::BudgetEnforcer enforcer(governed, &token, engine::FaultPlan{},
                                    [] { return std::uint64_t{0}; });
    std::atomic<std::uint64_t> stops{0};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::uint64_t i = 0; i < kClaims / workers; ++i) {
          if (enforcer.claim() != StopReason::Complete) stops.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(stops.load(), 0u);
    EXPECT_LE(enforcer.probes(), kClaims / engine::kBudgetCheckInterval + 1);
    // Not vacuous: the probes do run at their cadence.
    EXPECT_GE(enforcer.probes(), kClaims / engine::kBudgetCheckInterval);
  }
}

// Deadline escalation at claim granularity: with slow claims, the
// every-32-claims cadence alone would overshoot a 30ms deadline by up to
// 31 claim times.  The first claim probes, sees the deadline inside the
// urgent window, and every following claim probes — so the trip happens
// before the counter-based probe at claim 32 ever fires.
TEST(Budget, DeadlineProbeEscalatesToEveryClaim) {
  const engine::Budget budget{.max_states = 1'000'000,
                              .max_visited_bytes = 0,
                              .deadline_ms = 30};
  engine::BudgetEnforcer enforcer(budget, nullptr, engine::FaultPlan{},
                                  [] { return std::uint64_t{0}; });
  std::uint64_t claims = 0;
  StopReason stop = StopReason::Complete;
  while (stop == StopReason::Complete && claims < 2 * engine::kBudgetCheckInterval) {
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    stop = enforcer.claim();
    claims += 1;
  }
  EXPECT_EQ(stop, StopReason::Deadline);
  // ~8 claims of 4ms pass the 30ms deadline; without per-claim escalation
  // the first probe would only happen at claim 32 (~128ms late).
  EXPECT_LT(claims, engine::kBudgetCheckInterval);
}

// --- Checkpoint / resume ----------------------------------------------------

/// Runs `name` truncated at half its reachable-state count, checkpoints,
/// resumes, and requires the resumed run's verdicts to equal an
/// uninterrupted run bit for bit.
void roundtrip_case(const std::string& name, unsigned workers, bool por) {
  SCOPED_TRACE(name + " workers=" + std::to_string(workers) +
               " por=" + std::to_string(por));
  const auto program = parser::parse_file(prog(name));
  const auto regs = all_regs(program.sys);

  ExploreOptions full_opts;
  full_opts.num_threads = workers;
  full_opts.por = por;
  const auto full = explore::explore(program.sys, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_GE(full.stats.states, 4u) << "program too small to interrupt";

  TempFile ck("budget_roundtrip_" + name + std::to_string(workers) +
              (por ? "p" : "") + ".json");
  ExploreOptions trunc_opts = full_opts;
  trunc_opts.max_states = full.stats.states / 2;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated = explore::explore(program.sys, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  EXPECT_EQ(ckpt.stop, StopReason::StateCap);
  EXPECT_EQ(ckpt.reduction.por, por);
  EXPECT_GE(ckpt.states.size(), truncated.stats.states);

  ExploreOptions resume_opts = full_opts;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(program.sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.transitions, full.stats.transitions);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
  EXPECT_EQ(resumed.stats.blocked, full.stats.blocked);
  EXPECT_EQ(explore::final_register_values(program.sys, resumed, regs),
            explore::final_register_values(program.sys, full, regs));
}

TEST(Checkpoint, ResumeMatchesUninterruptedRun) {
  // Three corpus families — a lock implementation, a data structure client
  // and a seqlock client — each resumed with 4 workers and POR on (plus a
  // sequential unreduced sanity combination).
  for (const auto* name :
       {"ticket_lock.rc11", "mp_stack.rc11", "lock_client_seqlock.rc11"}) {
    roundtrip_case(name, 4, true);
    roundtrip_case(name, 1, false);
  }
}

TEST(Checkpoint, ResumeCanChangeThreadCountAndStrategy) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto full = explore::explore(program.sys, ExploreOptions{});

  TempFile ck("budget_threads.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 20;
  trunc_opts.num_threads = 1;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.num_threads = 4;  // checkpointed sequentially, resumed parallel
  resume_opts.strategy = explore::SearchStrategy::Bfs;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(program.sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
}

TEST(Checkpoint, PorMismatchIsRejected) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  TempFile ck("budget_pormismatch.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 15;
  trunc_opts.por = true;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.por = false;  // mismatch
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, resume_opts),
               support::Error);
}

TEST(Checkpoint, JsonRoundTripPreservesEverything) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_json.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);

  const auto a = engine::load_checkpoint(ck.path);
  const auto b = engine::from_json(engine::to_json(a));
  EXPECT_EQ(b.version, a.version);
  EXPECT_EQ(b.reduction.por, a.reduction.por);
  EXPECT_EQ(b.reduction.symmetry, a.reduction.symmetry);
  EXPECT_EQ(b.reduction.rf_quotient, a.reduction.rf_quotient);
  EXPECT_EQ(b.stop, a.stop);
  EXPECT_EQ(b.stats.states, a.stats.states);
  EXPECT_EQ(b.stats.visited_bytes, a.stats.visited_bytes);
  ASSERT_EQ(b.states.size(), a.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(b.states[i].parent, a.states[i].parent);
    EXPECT_EQ(b.states[i].thread, a.states[i].thread);
    EXPECT_EQ(b.states[i].label, a.states[i].label);
    EXPECT_EQ(b.states[i].enqueued, a.states[i].enqueued);
    EXPECT_EQ(b.states[i].encoding, a.states[i].encoding);
  }
}

TEST(Checkpoint, MalformedDocumentsAreRejected) {
  EXPECT_THROW((void)engine::from_json("not json"), support::Error);
  EXPECT_THROW((void)engine::from_json("{}"), support::Error);
  EXPECT_THROW(
      (void)engine::from_json(R"({"format":"rc11-witness","version":1})"),
      support::Error);
  EXPECT_THROW((void)engine::load_checkpoint("/nonexistent/ckpt.json"),
               support::Error);
}

TEST(Checkpoint, UnsupportedVersionIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_version.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);
  auto ckpt = engine::load_checkpoint(ck.path);
  auto doc = engine::to_json(ckpt);
  const auto pos = doc.find("\"version\": 1");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 12, "\"version\": 2");
  EXPECT_THROW((void)engine::from_json(doc), support::Error);
}

TEST(Checkpoint, TamperedEncodingFailsReconstruction) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  TempFile ck("budget_tamper.json");
  ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, opts);

  auto ckpt = engine::load_checkpoint(ck.path);
  ASSERT_GE(ckpt.states.size(), 2u);
  ckpt.states[1].encoding[0] ^= 0xdeadbeef;  // corrupt a non-root state

  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, resume_opts),
               support::Error);
}

TEST(Checkpoint, WrongProgramIsRejected) {
  const auto ticket = parser::parse_file(prog("ticket_lock.rc11"));
  TempFile ck("budget_wrongprog.json");
  ExploreOptions opts;
  opts.max_states = 20;
  opts.checkpoint_path = ck.path;
  (void)explore::explore(ticket.sys, opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  const auto other = parser::parse_file(prog("sb.rc11"));
  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(other.sys, resume_opts),
               support::Error);
}

// A resumed run is a first-class run: invariant violations found after the
// resume still carry replayable witnesses.
TEST(Checkpoint, ResumedRunViolationsCarryReplayableWitnesses) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto invariant =
      [](const lang::System& sys,
         const lang::Config& cfg) -> std::optional<std::string> {
    if (cfg.all_done(sys)) return "final state reached";
    return std::nullopt;
  };

  TempFile ck("budget_witness.json");
  ExploreOptions trunc_opts;
  trunc_opts.max_states = 5;
  trunc_opts.checkpoint_path = ck.path;
  (void)explore::explore(program.sys, trunc_opts);

  const auto ckpt = engine::load_checkpoint(ck.path);
  ExploreOptions resume_opts;
  resume_opts.resume = &ckpt;
  resume_opts.track_traces = true;
  const auto resumed = explore::explore(program.sys, resume_opts, invariant);
  ASSERT_FALSE(resumed.violations.empty());
  for (const auto& v : resumed.violations) {
    ASSERT_TRUE(v.witness.has_value());
    const auto r = witness::replay(program.sys, *v.witness);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// A checkpointed run keeps a trace sink, so its failures carry witnesses
// even with track_traces off; they replay like any other witness (the
// initial digest is the sink root's).
TEST(Checkpoint, CheckpointedRunWitnessesReplay) {
  TempFile ck("budget_ckpt_witness.json");
  const auto sb = parser::parse_file(prog("sb.rc11"));
  ExploreOptions explore_opts;
  explore_opts.checkpoint_path = ck.path;
  const auto explored = explore::explore(
      sb.sys, explore_opts,
      [](const lang::System& sys,
         const lang::Config& cfg) -> std::optional<std::string> {
        if (cfg.all_done(sys)) return "final state reached";
        return std::nullopt;
      });
  ASSERT_FALSE(explored.violations.empty());
  for (const auto& v : explored.violations) {
    ASSERT_TRUE(v.witness.has_value());
    const auto r = witness::replay(sb.sys, *v.witness);
    EXPECT_TRUE(r.ok) << r.error;
  }

  const auto broken = parser::parse_file(prog("mp_broken_outline.rc11"));
  ASSERT_TRUE(broken.outline.has_value());
  og::OutlineCheckOptions outline_opts;
  outline_opts.checkpoint_path = ck.path;
  const auto checked =
      og::check_outline(broken.sys, *broken.outline, outline_opts);
  ASSERT_FALSE(checked.failures.empty());
  for (const auto& f : checked.failures) {
    ASSERT_TRUE(f.witness.has_value());
    const auto r = witness::replay(broken.sys, *f.witness);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// The outline checker rides the same machinery: a truncated check resumes
// to the same verdict and the same obligation count.
TEST(Checkpoint, OutlineCheckResumes) {
  const auto program = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(program.outline.has_value());

  og::OutlineCheckOptions full_opts;
  const auto full = og::check_outline(program.sys, *program.outline, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_TRUE(full.valid);

  TempFile ck("budget_outline.json");
  og::OutlineCheckOptions trunc_opts;
  trunc_opts.max_states = 5;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated =
      og::check_outline(program.sys, *program.outline, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  og::OutlineCheckOptions resume_opts;
  resume_opts.resume = &ckpt;
  const auto resumed =
      og::check_outline(program.sys, *program.outline, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_TRUE(resumed.valid);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.obligations_checked, full.obligations_checked);
}

}  // namespace
