// rc11lib/support/parallel.hpp
//
// Small parallel-execution helpers shared by the explorer, the proof-outline
// checker and the refinement graph builder.  The convention across the
// library is `num_threads == 1` for the exact sequential algorithms (the
// default everywhere: one worker keeps the driver's exact DFS order, so
// statistics and failure order are reproducible), `0` for "use all hardware
// threads", and `N > 1` for an explicit worker count.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace rc11::support {

/// Resolves a user-facing thread-count option: 0 means hardware concurrency
/// (at least 1), anything else is taken literally.
[[nodiscard]] inline unsigned resolve_num_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

/// Runs `body(i)` for every i in [0, n), splitting the index space over
/// `num_threads` workers via an atomic cursor (chunked to amortise the
/// fetch_add).  Falls back to a plain loop when one worker resolves.
/// `body` must be safe to call concurrently for distinct indices.
inline void parallel_for(std::size_t n, unsigned num_threads,
                         const std::function<void(std::size_t)>& body) {
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_num_threads(num_threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Chunk so each fetch_add claims a contiguous run of indices.
  const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 8U));
  std::atomic<std::size_t> cursor{0};
  const auto run = [&] {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(run);
  run();
  for (auto& t : pool) t.join();
}

}  // namespace rc11::support
