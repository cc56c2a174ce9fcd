// Sampling strategy (engine/sample.hpp): seed determinism at every thread
// count, honest stop reasons (EpisodeCap vs the resource budgets), witness
// replay of sampled violations, the episode step cap, loud rejection of
// checkpoint/resume, and verdict agreement with the exhaustive
// oracle on the small corpus.  Also the one table of every rejected
// engine::Reduction combination (reduction_conflict lives next to the
// sampler), run through every library entry point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "engine/budget.hpp"
#include "engine/checkpoint.hpp"
#include "engine/sample.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/catalog.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "refinement/refinement.hpp"
#include "small_programs.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using catalogue::all_regs;
using engine::StopReason;
using engine::Strategy;
using explore::ExploreOptions;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

ExploreOptions sample_opts(std::uint64_t episodes, std::uint64_t seed) {
  ExploreOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = episodes;
  opts.sample.seed = seed;
  return opts;
}

// The lost-update invariant documented in ticket_worker_buggy.rc11.
constexpr const char* kBuggyInvariant =
    "done(t1) && done(t2) && done(t3) ==> !(definite(t3, x, 3) || "
    "definite(t3, x, 4) || definite(t3, x, 5))";

// --- strategy parsing and names ---------------------------------------------

TEST(Sample, ParseStrategy) {
  engine::Reduction r;
  r.mode = Strategy::Sample;
  r.sample.episodes = 0;

  EXPECT_TRUE(engine::parse_strategy("exhaustive", r));
  EXPECT_EQ(r.mode, Strategy::Exhaustive);
  EXPECT_FALSE(r.por);

  r.mode = Strategy::Sample;
  EXPECT_TRUE(engine::parse_strategy("por", r));
  EXPECT_EQ(r.mode, Strategy::Exhaustive);
  EXPECT_TRUE(r.por);

  r.por = false;
  EXPECT_TRUE(engine::parse_strategy("sample", r));
  EXPECT_EQ(r.mode, Strategy::Sample);
  EXPECT_EQ(r.sample.episodes, engine::SampleOptions{}.episodes);

  EXPECT_TRUE(engine::parse_strategy("sample:17", r));
  EXPECT_EQ(r.mode, Strategy::Sample);
  EXPECT_EQ(r.sample.episodes, 17u);
  EXPECT_FALSE(r.por);

  for (const char* bad :
       {"", "bogus", "sample:", "sample:0", "sample:abc", "sample:12x"}) {
    EXPECT_FALSE(engine::parse_strategy(bad, r)) << bad;
  }
  EXPECT_EQ(r.mode, Strategy::Sample) << "a failed parse writes nothing";
  EXPECT_EQ(r.sample.episodes, 17u);
}

TEST(Sample, StrategyAndStopReasonNames) {
  EXPECT_EQ(engine::to_string(Strategy::Exhaustive),
            std::string("exhaustive"));
  EXPECT_EQ(engine::to_string(Strategy::Sample), std::string("sample"));
  EXPECT_EQ(engine::stop_reason_from_string(
                engine::to_string(StopReason::EpisodeCap)),
            StopReason::EpisodeCap);
}

// --- seed determinism -------------------------------------------------------

// Episodes run strictly sequentially (the guided bias makes episode e depend
// on every earlier one), so the run must be identical at every --threads
// value, not merely equivalent.
TEST(Sample, SameSeedSameRunAtEveryThreadCount) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  ExploreOptions base = sample_opts(40, 7);

  std::optional<explore::ExploreResult> first;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ExploreOptions opts = base;
    opts.num_threads = threads;
    const auto result = explore::explore(program.sys, opts);
    EXPECT_EQ(result.stop, StopReason::EpisodeCap);
    EXPECT_EQ(result.stats.episodes, 40u);
    if (!first) {
      first = result;
      continue;
    }
    EXPECT_EQ(result.stats.states, first->stats.states) << threads;
    EXPECT_EQ(result.stats.transitions, first->stats.transitions) << threads;
    EXPECT_EQ(result.stats.finals, first->stats.finals) << threads;
    const auto regs = all_regs(program.sys);
    EXPECT_EQ(explore::final_register_values(program.sys, result, regs),
              explore::final_register_values(program.sys, *first, regs))
        << threads;
  }
}

TEST(Sample, DifferentSeedsDiverge) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  const auto a = explore::explore(program.sys, sample_opts(30, 1));
  const auto b = explore::explore(program.sys, sample_opts(30, 2));
  // Thirty 50-ish-step schedules over three threads agreeing step for step
  // across two seeds would mean the RNG is broken.
  EXPECT_NE(a.stats.states * 1000 + a.stats.transitions,
            b.stats.states * 1000 + b.stats.transitions);
}

// --- stop reasons -----------------------------------------------------------

TEST(Sample, FullBudgetStopsWithEpisodeCap) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto result = explore::explore(program.sys, sample_opts(5, 0));
  EXPECT_EQ(result.stop, StopReason::EpisodeCap);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.stats.episodes, 5u);
}

TEST(Sample, StateCapWinsOverEpisodeCap) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  ExploreOptions opts = sample_opts(1000, 0);
  opts.max_states = 3;  // coverage cap: distinct states, not steps
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::StateCap);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.stats.states, 3u);
}

TEST(Sample, CancelStopsWithInterrupted) {
  const auto program = parser::parse_file(prog("ticket_worker.rc11"));
  engine::CancelToken cancel;
  cancel.cancel();
  ExploreOptions opts = sample_opts(1000, 0);
  opts.cancel = &cancel;
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stop, StopReason::Interrupted);
  EXPECT_TRUE(result.truncated);
}

// --- sampled violations carry replayable witnesses --------------------------

TEST(Sample, SampledViolationWitnessReplays) {
  const auto program = parser::parse_file(prog("ticket_worker_buggy.rc11"));
  const auto assertion =
      parser::parse_assertion(program, kBuggyInvariant);
  ExploreOptions opts = sample_opts(4096, 1);
  opts.track_traces = true;
  const auto result = explore::explore(
      program.sys, opts,
      [&assertion](const lang::System& s,
                   const lang::Config& c) -> std::optional<std::string> {
        if (assertion.eval(s, c)) return std::nullopt;
        return "lost update";
      });
  ASSERT_FALSE(result.violations.empty());
  const auto& v = result.violations.front();
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_FALSE(v.trace.empty());
  const auto replayed = witness::replay(program.sys, *v.witness);
  EXPECT_TRUE(replayed.ok) << replayed.error;
}

// --- the episode step cap ---------------------------------------------------

// A thread spinning on a flag nobody writes never reaches a final or blocked
// state, so only engine::kEpisodeStepCap ends each episode.  The generous
// deadline turns a lost cap into a failure instead of a hang.
TEST(Sample, EpisodeStepCapEndsASpinLoop) {
  const auto program = parser::parse_program(
      "var f = 0; thread t { reg r; do { r <- f; } until (r == 1); }");
  ExploreOptions opts = sample_opts(5, 0);
  opts.deadline_ms = 60'000;
  const auto result = explore::explore(program.sys, opts);
  EXPECT_NE(result.stop, StopReason::Deadline);
  EXPECT_EQ(result.stop, StopReason::EpisodeCap);
  EXPECT_EQ(result.stats.episodes, 5u);
  EXPECT_EQ(result.stats.states, 2u);
  EXPECT_EQ(result.stats.finals, 0u);
  EXPECT_TRUE(result.final_configs.empty());
}

// --- checkpoint/resume are rejected loudly ----------------------------------

TEST(Sample, CheckpointPathIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  ExploreOptions opts = sample_opts(5, 0);
  opts.checkpoint_path = ::testing::TempDir() + "sample.ckpt";
  EXPECT_THROW((void)explore::explore(program.sys, opts), support::Error);
}

TEST(Sample, ResumeIsRejected) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  engine::Checkpoint ckpt;
  ExploreOptions opts = sample_opts(5, 0);
  opts.resume = &ckpt;
  EXPECT_THROW((void)explore::explore(program.sys, opts), support::Error);
}

// --- every rejected reduction combination, at every entry point ------------

/// The library entry points that take an engine::RunControl, as bits.
enum EntryPoint : unsigned {
  kExplore = 1U << 0,
  kOutline = 1U << 1,
  kRace = 1U << 2,
  kGraph = 1U << 3,
  kSimulation = 1U << 4,
  kTraceInclusion = 1U << 5,
  kCheckers = kExplore | kOutline | kRace,
  kAll = kCheckers | kGraph | kSimulation | kTraceInclusion,
};

/// A Reduction with `flags` set, sampling 4 episodes when `sampled`.
engine::Reduction reduction(bool sampled,
                            std::initializer_list<bool engine::Reduction::*>
                                flags) {
  engine::Reduction r;
  if (sampled) {
    r.mode = Strategy::Sample;
    r.sample.episodes = 4;
  }
  for (const auto flag : flags) r.*flag = true;
  return r;
}

/// The support::Error message `run` throws, or "" when it throws none.
std::string rejection(const std::function<void()>& run) {
  try {
    run();
  } catch (const support::Error& e) {
    return e.what();
  }
  return {};
}

TEST(Reduction, RejectedCombinations) {
  using R = engine::Reduction;
  struct Case {
    const char* what;
    R reduction;
    bool sc = false;          ///< run the system under MemoryModel::SC
    bool checkpoint = false;  ///< ask for a checkpoint file
    bool resume = false;      ///< resume from a checkpoint
    unsigned rejected_by = kAll;
    std::vector<std::string> names;  ///< flags the message must name
  };
  const Case cases[] = {
      {"sample+por", reduction(true, {&R::por}), false, false, false, kAll,
       {"--strategy sample", "--por"}},
      {"sample+symmetry", reduction(true, {&R::symmetry}), false, false,
       false, kAll, {"--strategy sample", "--symmetry"}},
      {"sample+rf", reduction(true, {&R::rf_quotient}), false, false, false,
       kAll, {"--strategy sample", "--rf-quotient"}},
      {"symmetry+rf", reduction(false, {&R::symmetry, &R::rf_quotient}),
       false, false, false, kAll, {"--symmetry", "--rf-quotient"}},
      {"rf under SC", reduction(false, {&R::rf_quotient}), true, false, false,
       kAll, {"--rf-quotient"}},
      {"sample+checkpoint", reduction(true, {}), false, true, false,
       kCheckers, {"--strategy sample", "--checkpoint"}},
      {"sample+resume", reduction(true, {}), false, false, true, kCheckers,
       {"--strategy sample", "--resume"}},
      // Refinement's own subset (refinement.hpp, GraphOptions).
      {"rf in refinement", reduction(false, {&R::rf_quotient}), false, false,
       false, kGraph | kSimulation | kTraceInclusion, {"--rf-quotient"}},
      {"symmetry in a graph build", reduction(false, {&R::symmetry}), false,
       false, false, kGraph | kSimulation, {"--symmetry"}},
      {"checkpoint in refinement", reduction(false, {}), false, true, false,
       kGraph | kSimulation | kTraceInclusion, {"--checkpoint"}},
      {"resume in refinement", reduction(false, {}), false, false, true,
       kGraph | kSimulation | kTraceInclusion, {"--resume"}},
  };

  const auto ex = og::make_fig3();
  const std::string never_written = ::testing::TempDir() + "never.ckpt";
  const engine::Checkpoint ckpt;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    lang::System sys = ex.sys;
    if (c.sc) {
      auto sem = sys.options();
      sem.model = memsem::MemoryModel::SC;
      sys.set_options(sem);
    }
    // Every entry point's options also carry the checkpoint requests.
    const auto checker = [&](auto opts) {
      static_cast<R&>(opts) = c.reduction;
      if (c.checkpoint) opts.checkpoint_path = never_written;
      if (c.resume) opts.resume = &ckpt;
      return opts;
    };
    struct Entry {
      EntryPoint bit;
      const char* name;
      std::function<void()> run;
    };
    const Entry entry_points[] = {
        {kExplore, "explore",
         [&] { (void)explore::explore(sys, checker(ExploreOptions{})); }},
        {kOutline, "check_outline",
         [&] {
           (void)og::check_outline(sys, ex.outline,
                                   checker(og::OutlineCheckOptions{}));
         }},
        {kRace, "race::check",
         [&] { (void)race::check(sys, checker(race::RaceOptions{})); }},
        {kGraph, "build_graph",
         [&] {
           (void)refinement::build_graph(sys,
                                         checker(refinement::GraphOptions{}));
         }},
        {kSimulation, "check_forward_simulation",
         [&] {
           (void)refinement::check_forward_simulation(
               sys, sys, checker(refinement::SimulationOptions{}));
         }},
        {kTraceInclusion, "check_trace_inclusion",
         [&] {
           (void)refinement::check_trace_inclusion(
               sys, sys, checker(refinement::TraceInclusionOptions{}));
         }},
    };
    for (const Entry& entry : entry_points) {
      if ((c.rejected_by & entry.bit) == 0) continue;
      const std::string message = rejection(entry.run);
      ASSERT_FALSE(message.empty()) << entry.name << " accepted it";
      for (const auto& name : c.names) {
        EXPECT_NE(message.find(name), std::string::npos)
            << entry.name << ": " << message;
      }
    }
  }
}

// --- the exhaustive oracle --------------------------------------------------

// Every sampled outcome must be an exhaustive outcome (sampling only walks
// real schedules), and on a litmus-sized program a few hundred episodes
// reach the full outcome set.
TEST(Sample, OutcomesAgreeWithExhaustiveOracle) {
  for (const char* name : {"sb.rc11", "ticket_lock.rc11"}) {
    const auto program = parser::parse_file(prog(name));
    const auto regs = all_regs(program.sys);

    const auto oracle = explore::explore(program.sys);
    ASSERT_EQ(oracle.stop, StopReason::Complete) << name;
    const auto oracle_outcomes =
        explore::final_register_values(program.sys, oracle, regs);

    const auto sampled = explore::explore(program.sys, sample_opts(400, 3));
    EXPECT_LE(sampled.stats.states, oracle.stats.states) << name;
    const auto sampled_outcomes =
        explore::final_register_values(program.sys, sampled, regs);
    for (const auto& tuple : sampled_outcomes) {
      EXPECT_NE(std::find(oracle_outcomes.begin(), oracle_outcomes.end(),
                          tuple),
                oracle_outcomes.end())
          << name << ": sampled outcome not reachable exhaustively";
    }
    EXPECT_EQ(sampled_outcomes, oracle_outcomes)
        << name << ": 400 episodes should saturate a litmus-sized program";
  }
}

// Experiment RS: 256 seeded episodes over the ticket-worker and
// message-passing families.  A sampled run is a pure function of (program,
// episodes, seed), so its exact size doubles as a seed-determinism gate;
// every sampled final configuration is an exhaustively reachable one.
TEST(Sample, SeededCoverageOfTargetFamiliesPinned) {
  struct Case {
    const char* name;
    lang::System sys;
    std::uint64_t states, transitions, oracle_states;
  };
  locks::TicketLock lock;
  const Case cases[] = {
      {"ticket_worker_2x2w4",
       locks::instantiate(locks::worker_client(2, 2, 4), lock), 246, 492,
       515},
      {"ticket_worker_3x1w3",
       locks::instantiate(locks::worker_client(3, 1, 3), lock), 601, 1503,
       739},
      {"mp_compute_w4", testgen::mp_compute(4), 65, 105, 65},
      {"mp_spin_w3", testgen::mp_spin_compute(3), 18, 28, 18},
  };
  for (const auto& c : cases) {
    const auto oracle = explore::explore(c.sys);
    const auto sampled = explore::explore(c.sys, sample_opts(256, 42));
    EXPECT_EQ(oracle.stats.states, c.oracle_states) << c.name;
    EXPECT_EQ(sampled.stats.states, c.states) << c.name;
    EXPECT_EQ(sampled.stats.transitions, c.transitions) << c.name;
    std::vector<std::vector<std::uint64_t>> pool;
    for (const auto& cfg : oracle.final_configs) pool.push_back(cfg.encode());
    std::sort(pool.begin(), pool.end());
    for (const auto& cfg : sampled.final_configs) {
      EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(), cfg.encode()))
          << c.name << ": sampled final configuration not reachable";
    }
  }
}

// Owicki-Gries under sampling: failures found are real, a clean sampled run
// is never a proof.
TEST(Sample, OutlineCheckUnderSampling) {
  const auto broken = parser::parse_file(prog("mp_broken_outline.rc11"));
  ASSERT_TRUE(broken.outline.has_value());
  og::OutlineCheckOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = 200;
  opts.sample.seed = 5;
  const auto invalid =
      og::check_outline(broken.sys, *broken.outline, opts);
  EXPECT_FALSE(invalid.valid);

  const auto verified = parser::parse_file(prog("mp_verified.rc11"));
  ASSERT_TRUE(verified.outline.has_value());
  const auto clean =
      og::check_outline(verified.sys, *verified.outline, opts);
  EXPECT_TRUE(clean.valid);
  EXPECT_NE(clean.stop, StopReason::Complete)
      << "a sampled pass is never a proof";
  EXPECT_EQ(clean.stop, StopReason::EpisodeCap);
}

// Refinement under sampling: only the concrete side is sampled, violations
// are definite, and a clean sampled game stays inconclusive.
TEST(Sample, TraceInclusionUnderSampling) {
  const auto abs = parser::parse_file(prog("lock_client_abstract.rc11"));
  const auto broken = parser::parse_file(prog("lock_client_broken.rc11"));
  const auto good = parser::parse_file(prog("lock_client_seqlock.rc11"));

  refinement::TraceInclusionOptions opts;
  opts.mode = Strategy::Sample;
  opts.sample.episodes = 200;
  opts.sample.seed = 1;

  const auto violated =
      refinement::check_trace_inclusion(abs.sys, broken.sys, opts);
  EXPECT_FALSE(violated.holds);

  const auto clean =
      refinement::check_trace_inclusion(abs.sys, good.sys, opts);
  EXPECT_TRUE(clean.holds);
  EXPECT_TRUE(clean.truncated) << "a clean sampled game is a lower bound";
}

// The headline scenario: the seeded lost-update bug that a 10^5-state
// exhaustive budget misses but a few thousand episodes find.
TEST(Sample, FindsTheBugExhaustiveSearchMisses) {
  const auto program = parser::parse_file(prog("ticket_worker_buggy.rc11"));
  const auto assertion = parser::parse_assertion(program, kBuggyInvariant);
  const auto invariant =
      [&assertion](const lang::System& s,
                   const lang::Config& c) -> std::optional<std::string> {
    if (assertion.eval(s, c)) return std::nullopt;
    return "lost update";
  };

  ExploreOptions exhaustive;
  exhaustive.max_states = 100'000;
  const auto blind = explore::explore(program.sys, exhaustive, invariant);
  EXPECT_TRUE(blind.violations.empty());
  EXPECT_EQ(blind.stop, StopReason::StateCap);

  const auto found =
      explore::explore(program.sys, sample_opts(4096, 1), invariant);
  EXPECT_FALSE(found.violations.empty());
  EXPECT_LT(found.stats.states, 100'000u)
      << "sampling finds it with far less coverage than the blind budget";
}

}  // namespace
