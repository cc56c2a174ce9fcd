// The one-worker schedule of the reachability driver, pinned.  A
// `--threads 1` run is the worker pool with one worker on the calling
// thread, taking one frontier item per turn (LIFO, FIFO under BFS).
// `peak_frontier`, `visited_bytes`, `por_chained`, `symmetry_hits` and
// `sleep_set_skips` all depend on that pop order, and `--json` reports
// them, so a change to the loop that reorders a one-worker run shows up
// here as a changed count.  A change that moves any of these figures
// changes what single-thread reports say, and must argue why in its own
// right.
//
// `visited_bytes` is pinned only for untraced runs: a trace sink also
// counts the capacity of every recorded step label.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "explore/explorer.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"

namespace {

using namespace rc11;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

/// One driver configuration, named like the CLI flags that select it.
/// `--symmetry` and `--rf-quotient` turn sleep sets on, as the tools do.
struct Flags {
  const char* name;
  bool por = false;
  bool symmetry = false;
  bool rf_quotient = false;
  bool bfs = false;
  bool traced = false;
};

const Flags kConfigs[] = {
    {"plain"},
    {"por", /*por=*/true},
    {"por+symmetry", /*por=*/true, /*symmetry=*/true},
    {"rf-quotient", false, false, /*rf_quotient=*/true},
    {"bfs", false, false, false, /*bfs=*/true},
    {"traced", false, false, false, false, /*traced=*/true},
    {"traced por", /*por=*/true, false, false, false, /*traced=*/true},
    {"traced symmetry", false, /*symmetry=*/true, false, false,
     /*traced=*/true},
    {"traced rf-quotient", false, false, /*rf_quotient=*/true, false,
     /*traced=*/true},
};

struct Pin {
  const char* program;
  const char* config;
  std::uint64_t states;
  std::uint64_t transitions;
  std::uint64_t peak_frontier;
  std::uint64_t por_chained;
  std::uint64_t symmetry_hits;
  std::uint64_t sleep_set_skips;
  std::uint64_t rf_merges;
  std::uint64_t visited_bytes;  ///< 0 for traced configurations (unpinned)
};

// Columns: program, configuration, states, transitions, peak_frontier,
// por_chained, symmetry_hits, sleep_set_skips, rf_merges, visited_bytes.
// dcl_broken.rc11 runs through race::check, with race detection on.
const Pin kPins[] = {
    {"ticket_worker.rc11", "plain", 16699, 50208, 94, 0, 0, 0, 0, 4943720},
    {"ticket_worker.rc11", "por", 12547, 38664, 80, 5952, 0, 0, 0, 2727394},
    {"ticket_worker.rc11", "por+symmetry", 2097, 6461, 53, 762, 3553, 1311, 0, 653144},
    {"ticket_worker.rc11", "rf-quotient", 16699, 50208, 69, 0, 0, 12400, 0, 5093522},
    {"ticket_worker.rc11", "bfs", 16699, 50208, 1078, 0, 0, 0, 0, 5064382},
    {"ticket_worker.rc11", "traced", 16699, 50208, 94, 0, 0, 0, 0, 0},
    {"ticket_worker.rc11", "traced por", 12547, 38664, 80, 1730, 0, 0, 0, 0},
    {"ticket_worker.rc11", "traced symmetry", 2791, 8391, 63, 0, 4484, 2111, 0, 0},
    {"ticket_worker.rc11", "traced rf-quotient", 16699, 50208, 69, 0, 0, 12400, 0, 0},
    {"ticket_lock.rc11", "plain", 47, 78, 8, 0, 0, 0, 0, 5778},
    {"ticket_lock.rc11", "por", 39, 64, 7, 8, 0, 0, 0, 5008},
    {"ticket_lock.rc11", "por+symmetry", 20, 33, 4, 4, 14, 2, 0, 3146},
    {"ticket_lock.rc11", "rf-quotient", 47, 78, 7, 0, 0, 6, 0, 6294},
    {"ticket_lock.rc11", "bfs", 47, 78, 7, 0, 0, 0, 0, 5086},
    {"ticket_lock.rc11", "traced", 47, 78, 8, 0, 0, 0, 0, 0},
    {"ticket_lock.rc11", "traced por", 39, 64, 7, 6, 0, 0, 0, 0},
    {"ticket_lock.rc11", "traced symmetry", 24, 40, 4, 0, 17, 3, 0, 0},
    {"ticket_lock.rc11", "traced rf-quotient", 47, 78, 7, 0, 0, 6, 0, 0},
    {"mp_stack.rc11", "plain", 12, 17, 3, 0, 0, 0, 0, 1188},
    {"mp_stack.rc11", "por", 11, 16, 3, 2, 0, 0, 0, 1188},
    {"mp_stack.rc11", "por+symmetry", 11, 16, 3, 2, 0, 2, 0, 1462},
    {"mp_stack.rc11", "rf-quotient", 12, 17, 3, 0, 0, 2, 0, 1402},
    {"mp_stack.rc11", "bfs", 12, 17, 4, 0, 0, 0, 0, 1272},
    {"mp_stack.rc11", "traced", 12, 17, 3, 0, 0, 0, 0, 0},
    {"mp_stack.rc11", "traced por", 11, 16, 3, 1, 0, 0, 0, 0},
    {"mp_stack.rc11", "traced symmetry", 12, 17, 3, 0, 0, 2, 0, 0},
    {"mp_stack.rc11", "traced rf-quotient", 12, 17, 3, 0, 0, 2, 0, 0},
    {"lock_client_seqlock.rc11", "plain", 113, 210, 16, 0, 0, 0, 0, 13066},
    {"lock_client_seqlock.rc11", "por", 66, 120, 11, 32, 0, 0, 0, 9408},
    {"lock_client_seqlock.rc11", "por+symmetry", 66, 120, 11, 32, 0, 6, 0, 11456},
    {"lock_client_seqlock.rc11", "rf-quotient", 113, 210, 11, 0, 0, 38, 0, 17258},
    {"lock_client_seqlock.rc11", "bfs", 113, 210, 16, 0, 0, 0, 0, 12242},
    {"lock_client_seqlock.rc11", "traced", 113, 210, 16, 0, 0, 0, 0, 0},
    {"lock_client_seqlock.rc11", "traced por", 66, 120, 11, 20, 0, 0, 0, 0},
    {"lock_client_seqlock.rc11", "traced symmetry", 113, 210, 11, 0, 0, 38, 0, 0},
    {"lock_client_seqlock.rc11", "traced rf-quotient", 113, 210, 11, 0, 0, 38, 0, 0},
    {"dcl_broken.rc11", "plain", 121, 218, 11, 0, 0, 0, 0, 16254},
    {"dcl_broken.rc11", "por", 64, 110, 8, 42, 0, 0, 0, 8782},
    {"dcl_broken.rc11", "por+symmetry", 33, 57, 8, 22, 14, 3, 0, 4096},
    {"dcl_broken.rc11", "rf-quotient", 107, 206, 6, 0, 0, 47, 0, 19362},
    {"dcl_broken.rc11", "bfs", 121, 218, 21, 0, 0, 0, 0, 17036},
    {"dcl_broken.rc11", "traced", 121, 218, 11, 0, 0, 0, 0, 0},
    {"dcl_broken.rc11", "traced por", 64, 110, 8, 24, 0, 0, 0, 0},
    {"dcl_broken.rc11", "traced symmetry", 62, 112, 9, 0, 36, 14, 0, 0},
    {"dcl_broken.rc11", "traced rf-quotient", 107, 206, 6, 0, 0, 47, 12, 0},
};

engine::ExploreStats run(const std::string& program, const Flags& c) {
  const auto parsed = parser::parse_file(prog(program));
  const auto strategy =
      c.bfs ? engine::SearchStrategy::Bfs : engine::SearchStrategy::Dfs;
  if (program == "dcl_broken.rc11") {
    race::RaceOptions opts;
    opts.num_threads = 1;
    opts.strategy = strategy;
    opts.por = c.por;
    opts.symmetry = c.symmetry;
    opts.rf_quotient = c.rf_quotient;
    opts.track_traces = c.traced;
    return race::check(parsed.sys, opts).stats;
  }
  explore::ExploreOptions opts;
  opts.num_threads = 1;
  opts.strategy = strategy;
  opts.por = c.por;
  opts.symmetry = c.symmetry;
  opts.rf_quotient = c.rf_quotient;
  opts.track_traces = c.traced;
  return explore::explore(parsed.sys, opts).stats;
}

/// The row a run would need in kPins, printed on any mismatch so a
/// deliberate schedule change can be re-pinned by copying it.
std::string row(const char* program, const Flags& c,
                const engine::ExploreStats& s) {
  return std::string("{\"") + program + "\", \"" + c.name + "\", " +
         std::to_string(s.states) + ", " + std::to_string(s.transitions) +
         ", " + std::to_string(s.peak_frontier) + ", " +
         std::to_string(s.por_chained) + ", " +
         std::to_string(s.symmetry_hits) + ", " +
         std::to_string(s.sleep_set_skips) + ", " +
         std::to_string(s.rf_merges) + ", " +
         std::to_string(c.traced ? 0 : s.visited_bytes) + "},";
}

TEST(Reach, OneWorkerSchedulePinned) {
  std::size_t next = 0;
  for (const char* program :
       {"ticket_worker.rc11", "ticket_lock.rc11", "mp_stack.rc11",
        "lock_client_seqlock.rc11", "dcl_broken.rc11"}) {
    for (const Flags& c : kConfigs) {
      SCOPED_TRACE(std::string(program) + " " + c.name);
      const engine::ExploreStats s = run(program, c);
      const std::string actual = row(program, c, s);
      ASSERT_LT(next, std::size(kPins)) << "unpinned run: " << actual;
      const Pin& pin = kPins[next++];
      ASSERT_EQ(std::string(pin.program), program);
      ASSERT_EQ(std::string(pin.config), c.name);
      EXPECT_EQ(s.states, pin.states) << actual;
      EXPECT_EQ(s.transitions, pin.transitions) << actual;
      EXPECT_EQ(s.peak_frontier, pin.peak_frontier) << actual;
      EXPECT_EQ(s.por_chained, pin.por_chained) << actual;
      EXPECT_EQ(s.symmetry_hits, pin.symmetry_hits) << actual;
      EXPECT_EQ(s.sleep_set_skips, pin.sleep_set_skips) << actual;
      EXPECT_EQ(s.rf_merges, pin.rf_merges) << actual;
      if (!c.traced) EXPECT_EQ(s.visited_bytes, pin.visited_bytes) << actual;
    }
  }
  EXPECT_EQ(next, std::size(kPins));
}

}  // namespace
