// Experiment RG: resource-governance overhead — the per-state budget gate
// (BudgetEnforcer::claim) runs on every expansion, so it has to be
// effectively free.  Each workload is explored twice: "plain" (default
// options: the gate only counts claims against the state cap) and
// "governed" (a live cancel token, a huge memory budget and a far deadline,
// i.e. every probe dimension armed but never tripping).  The verdict
// asserts the governed run explores the identical state space and is at
// most 3% slower than the plain run (plus an absolute floor for timer noise
// on sub-millisecond workloads).  The test
// Budget.ArmedButUntrippedBudgetsExploreThePlainSpace pins the same state
// counts.
//
// Prints one "[RG] REPRODUCED|MISMATCH — ..." line per workload and exits 1
// if any line is a MISMATCH.  Run it from a Release build:
//   build/bench/bench_budget

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "engine/budget.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"

namespace {

using namespace rc11;

struct Workload {
  std::string name;
  lang::System sys;
};

std::vector<Workload> workloads() {
  // Big enough (tens of milliseconds) that a 3% delta is measurable above
  // timer jitter; the small mgc control exercises the absolute floor.
  locks::TicketLock lock;
  return {
      {"budget_ticket_worker_3x2w4",
       locks::instantiate(locks::worker_client(3, 2, 4), lock)},
      {"budget_ticket_worker_2x4w8",
       locks::instantiate(locks::worker_client(2, 4, 8), lock)},
      {"budget_ticket_mgc_2x2",
       locks::instantiate(locks::mgc_client(2, 2), lock)},
  };
}

/// Best of five timed explorations after one warm-up run.
double timed_explore(const lang::System& sys,
                     const explore::ExploreOptions& opts,
                     explore::ExploreResult& result) {
  result = explore::explore(sys, opts);
  double best_s = 1e9;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    result = explore::explore(sys, opts);
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  return best_s;
}

}  // namespace

int main() {
  engine::CancelToken token;  // live but never cancelled
  bool all_ok = true;
  for (const auto& [name, sys] : workloads()) {
    explore::ExploreOptions plain_opts;

    explore::ExploreOptions governed_opts;
    governed_opts.cancel = &token;
    governed_opts.max_visited_bytes = std::uint64_t{1} << 40;  // never trips
    governed_opts.deadline_ms = 24ull * 60 * 60 * 1000;        // never trips

    explore::ExploreResult plain, governed;
    const double plain_s = timed_explore(sys, plain_opts, plain);
    const double governed_s = timed_explore(sys, governed_opts, governed);

    const double overhead = governed_s / plain_s - 1.0;
    const bool same_space =
        governed.stats.states == plain.stats.states &&
        governed.stats.transitions == plain.stats.transitions &&
        governed.stop == engine::StopReason::Complete;
    // <= 3% relative, with a 200us absolute floor so timer jitter on tiny
    // workloads cannot fail the gate.
    const bool cheap = overhead <= 0.03 || (governed_s - plain_s) <= 200e-6;
    const bool ok = same_space && cheap;
    all_ok = all_ok && ok;

    std::cout << "[RG] " << (ok ? "REPRODUCED" : "MISMATCH") << " — " << name
              << ": " << plain.stats.states << " states, plain "
              << plain_s * 1e3 << " ms vs governed " << governed_s * 1e3
              << " ms (" << overhead * 1e2
              << "% overhead, target <= 3%), space "
              << (same_space ? "identical" : "DIFFERS") << "\n";
  }
  return all_ok ? 0 : 1;
}
