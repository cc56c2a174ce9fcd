// The parallel explorer beyond the differential matrix's multi-worker rows
// (test_matrix.cpp, where 2 and 8 workers must build the one-worker graph
// of every corpus program, case study, compute program and lock client):
// litmus outcome sets, violation sets, truncation and stop reasons at 1, 2
// and 8 workers, and traced inserts on one contended shard.  The schedule
// may differ; the answers may not.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalogue.hpp"
#include "engine/sharded_visited.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "parser/parser.hpp"
#include "support/hash.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using catalogue::all_regs;
using explore::ExploreOptions;
using lang::Config;
using lang::System;

const unsigned kThreadCounts[] = {1, 2, 8};

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

TEST(ParallelExplore, LitmusSuiteOutcomeSetsIdentical) {
  for (const auto& test : catalogue::litmus_tests()) {
    SCOPED_TRACE(test.name);
    for (const unsigned workers : kThreadCounts) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExploreOptions opts;
      opts.num_threads = workers;
      const auto result = explore::explore(test.sys, opts);
      EXPECT_FALSE(result.truncated);
      EXPECT_EQ(explore::final_register_values(test.sys, result, test.observed),
                test.allowed);
    }
  }
}

// An invariant that fires somewhere in the middle of the state space: the
// protected counter x reaches 2 in every terminating run of the broken lock
// client, so every thread count must find *a* violation when stopping early
// and the *same full set* when collecting all of them.
TEST(ParallelExplore, ViolationPresenceIdentical) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto invariant = [](const System& sys,
                            const Config& cfg) -> std::optional<std::string> {
    // Both threads terminated: flag every final state.
    if (cfg.all_done(sys)) return "final state reached";
    return std::nullopt;
  };

  for (const bool stop_early : {true, false}) {
    SCOPED_TRACE(stop_early ? "stop_on_violation" : "collect all");
    std::vector<std::vector<std::pair<std::string, std::string>>> reported;
    for (const unsigned workers : kThreadCounts) {
      ExploreOptions opts;
      opts.num_threads = workers;
      opts.stop_on_violation = stop_early;
      const auto result = explore::explore(program.sys, opts, invariant);
      EXPECT_FALSE(result.violations.empty())
          << "workers=" << workers << ": violation must be found";
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const auto& v : result.violations) {
        pairs.emplace_back(v.what, v.state_dump);
      }
      reported.push_back(std::move(pairs));
    }
    if (!stop_early) {
      // Without early stop the full violation set is schedule-independent.
      EXPECT_EQ(reported[1], reported[0]);
      EXPECT_EQ(reported[2], reported[0]);
    }
  }
}

// Under a max_states budget different schedules visit different subsets, so
// identical outcomes cannot be demanded — but every thread count must report
// the truncation, and every truncated outcome set must be a subset of the
// full one.
TEST(ParallelExplore, TruncationReportedAndSound) {
  const auto program = parser::parse_file(prog("ticket_lock.rc11"));
  const auto regs = all_regs(program.sys);

  ExploreOptions full_opts;
  const auto full = explore::explore(program.sys, full_opts);
  ASSERT_FALSE(full.truncated);
  const auto full_outcomes =
      explore::final_register_values(program.sys, full, regs);

  for (const unsigned workers : kThreadCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExploreOptions opts;
    opts.num_threads = workers;
    opts.max_states = 20;  // well below the 47 reachable states
    const auto result = explore::explore(program.sys, opts);
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.stop, engine::StopReason::StateCap);
    EXPECT_LE(result.stats.states, opts.max_states);
    const auto outcomes =
        explore::final_register_values(program.sys, result, regs);
    EXPECT_TRUE(std::includes(full_outcomes.begin(), full_outcomes.end(),
                              outcomes.begin(), outcomes.end()))
        << "truncated outcomes must be a subset of the full outcome set";
  }
}

// The StopReason is schedule-independent: whichever worker trips the limit,
// every (threads, por) combination over every small corpus program reports
// the same reason for the same budget.
TEST(ParallelExplore, StopReasonIdenticalAcrossSchedules) {
  for (const auto& name : catalogue::crosscheck_corpus()) {
    SCOPED_TRACE(name);
    const auto program = parser::parse_file(prog(name));
    for (const bool por : {false, true}) {
      ExploreOptions base_opts;
      base_opts.por = por;
      const auto full = explore::explore(program.sys, base_opts);
      if (full.stats.states < 8) continue;  // too small to truncate honestly
      for (const unsigned workers : kThreadCounts) {
        SCOPED_TRACE("por=" + std::to_string(por) +
                     " workers=" + std::to_string(workers));
        ExploreOptions opts;
        opts.num_threads = workers;
        opts.por = por;
        opts.max_states = 5;
        const auto result = explore::explore(program.sys, opts);
        EXPECT_EQ(result.stop, engine::StopReason::StateCap);
        EXPECT_TRUE(result.truncated);
        EXPECT_LE(result.stats.states, opts.max_states);
      }
    }
  }
}

TEST(ParallelExplore, ZeroResolvesToHardwareConcurrency) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  ExploreOptions opts;
  opts.num_threads = 0;  // hardware concurrency, whatever it is
  const auto result = explore::explore(program.sys, opts);
  EXPECT_EQ(result.stats.states, 14u);
  EXPECT_EQ(result.stats.finals, 4u);
}

// Stress insert_traced/path_to under *real* contention: a single shard means
// every insert of every worker serialises on one mutex, which is the worst
// case for the id-assignment + parent-recording atomicity the witness
// subsystem depends on.  Eight workers race a hand-rolled BFS over the
// ticket-lock/most-general-client graph (331 states), then every interned
// state's reconstructed path must replay through the full semantics, step by
// step, onto the state it claims to reach.
TEST(ParallelExplore, TracedInsertsOnOneShardReplayUnderContention) {
  locks::TicketLock lock;
  const System sys = locks::instantiate(locks::mgc_client(2, 2), lock);

  engine::ShardedVisitedSet visited(1);  // force all workers onto one mutex

  const Config init = lang::initial_config(sys);
  std::vector<std::uint64_t> enc;
  init.encode_into(enc);
  const auto root = visited.insert_traced(
      enc, engine::ShardedVisitedSet::kNoState, 0, "");
  ASSERT_TRUE(root.inserted);

  std::mutex mu;
  std::vector<std::pair<Config, std::uint64_t>> frontier{{init, root.id}};
  std::vector<std::uint64_t> ids{root.id};
  std::atomic<unsigned> working{0};

  constexpr unsigned kWorkers = 8;
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      std::vector<std::uint64_t> scratch;
      for (;;) {
        std::pair<Config, std::uint64_t> item{init, 0};  // placeholder copy
        {
          std::lock_guard<std::mutex> lk(mu);
          if (frontier.empty()) {
            if (working.load() == 0) return;  // drained and nobody producing
            continue;
          }
          item = std::move(frontier.back());
          frontier.pop_back();
          working.fetch_add(1);
        }
        for (auto& step : lang::successors(sys, item.first, true)) {
          scratch.clear();
          step.after.encode_into(scratch);
          const auto ins = visited.insert_traced(
              scratch, item.second, step.thread, std::move(step.label));
          if (!ins.inserted) continue;
          std::lock_guard<std::mutex> lk(mu);
          ids.push_back(ins.id);
          frontier.emplace_back(std::move(step.after), ins.id);
        }
        working.fetch_sub(1);
      }
    });
  }
  for (auto& t : workers) t.join();

  // The racing BFS visited exactly the full reachable graph.
  const auto reference = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(ids.size(), reference.stats.states);
  EXPECT_EQ(visited.size(), reference.stats.states);

  // Every interned state gets a replayable path: wrap path_to's edges as a
  // witness (digests recovered from the interned encodings) and push it
  // through witness::replay, which re-executes against lang::successors.
  std::vector<std::uint64_t> words;
  for (const auto id : ids) {
    const auto edges = visited.path_to(id);
    witness::Witness w;
    w.kind = "invariant";
    w.source = "test";
    w.initial_digest = witness::config_digest(init);
    for (const auto& edge : edges) {
      words.clear();
      visited.decode_state(edge.state, words);
      w.steps.push_back({edge.thread, edge.label, support::hash_words(words)});
    }
    const auto r = witness::replay(sys, w);
    ASSERT_TRUE(r.ok) << "path to state " << id << ": " << r.error;
    ASSERT_EQ(r.steps_applied, edges.size());
  }
}

}  // namespace
