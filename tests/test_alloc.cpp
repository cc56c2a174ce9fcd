// Allocation counts of the exploration hot path.  This executable replaces
// the global operator new/delete with counting wrappers (hence its own test
// binary), so every check below is a deterministic number of heap blocks,
// not a timing:
//
//   * copying a Config costs the same number of blocks whatever its
//     operation count — MemState keeps its views and modification orders in
//     flat arrays, not one vector per operation, location or thread;
//   * copy-assigning a Config into one that already holds a state of the
//     same size allocates nothing — this is what lets a pooled StepBuffer
//     slot be refilled for free;
//   * an exploration (plain, POR or quotient-keyed) allocates a bounded
//     number of blocks per *new* state only: the driver interns a successor
//     in its pooled slot and moves it out only when it enters the frontier,
//     so a duplicate successor costs no allocation at all.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/reach.hpp"
#include "lang/config.hpp"
#include "parser/parser.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace rc11;
using lang::Config;
using lang::System;

/// The corpus program tools/programs/`name`.rc11.
System program(const std::string& name) {
  return parser::parse_file(std::string(RC11_SRC_DIR) + "/tools/programs/" +
                            name + ".rc11")
      .sys;
}

/// Heap blocks `fn` allocates.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The state reached by always taking the first enabled step: a final state
/// of store_fan with every thread's stores in memory.
Config first_step_run(const System& sys) {
  Config cfg = lang::initial_config(sys);
  for (;;) {
    auto steps = lang::successors(sys, cfg);
    if (steps.empty()) return cfg;
    cfg = std::move(steps.front().after);
  }
}

/// Heap blocks one Config copy costs.  The copy lands in a reserved slot
/// and is compared afterwards, so the compiler cannot elide it.
std::uint64_t copy_blocks(const Config& cfg) {
  std::vector<Config> slot;
  slot.reserve(1);
  const std::uint64_t blocks = allocations_of([&] { slot.push_back(cfg); });
  EXPECT_EQ(slot.front().encode(), cfg.encode());
  return blocks;
}

TEST(Alloc, ConfigCopyCostIsIndependentOfOpCount) {
  const System sys = program("store_fan");
  const Config few = lang::initial_config(sys);
  const Config many = first_step_run(sys);
  ASSERT_GT(many.mem.num_ops(), few.mem.num_ops() + 8);
  const std::uint64_t few_blocks = copy_blocks(few);
  const std::uint64_t many_blocks = copy_blocks(many);
  EXPECT_EQ(few_blocks, many_blocks)
      << few.mem.num_ops() << " ops cost " << few_blocks << " blocks, "
      << many.mem.num_ops() << " ops cost " << many_blocks;
}

TEST(Alloc, SameSizeCopyAssignAllocatesNothing) {
  // Two states with the same operation count whose operations sit at
  // different locations: the harder case for a per-location layout.
  const System sys = program("store_fan");
  std::vector<Config> states{lang::initial_config(sys)};
  for (std::size_t i = 0; i < states.size() && states.size() < 200; ++i) {
    for (auto& step : lang::successors(sys, states[i])) {
      states.push_back(std::move(step.after));
    }
  }
  const auto same_size_other_shape = [&](const Config& x, const Config& y) {
    if (x.mem.num_ops() != y.mem.num_ops()) return false;
    for (memsem::LocId loc = 0; loc < sys.locations().size(); ++loc) {
      if (x.mem.mo(loc).size() != y.mem.mo(loc).size()) return true;
    }
    return false;
  };
  const Config* a = nullptr;
  const Config* b = nullptr;
  for (const Config& x : states) {
    for (const Config& y : states) {
      if (a == nullptr && same_size_other_shape(x, y)) {
        a = &x;
        b = &y;
      }
    }
  }
  ASSERT_NE(a, nullptr);

  Config slot = *a;
  EXPECT_EQ(allocations_of([&] { slot = *b; }), 0u);
  EXPECT_EQ(slot.encode(), b->encode());
  EXPECT_EQ(allocations_of([&] { slot = *a; }), 0u);
  EXPECT_EQ(slot.encode(), a->encode());
}

TEST(Alloc, DuplicateSuccessorsAllocateNothing) {
  // One-thread runs over store_fan: 3.3 transitions per state, about 70% of
  // them duplicates.  Interning in the pooled slot means only a state that
  // enters the frontier pays: the Config copy that refills the slot it left,
  // plus the growth of that copy's arrays and a few blocks of frontier and
  // visited-set growth — under two Config copies per state.  A driver that
  // moved every successor out before interning would pay a Config copy per
  // *transition*.  The plain path, POR chain collapse and the reduced
  // (abstract-key) path are each one run.  The ticket_worker rows key every
  // successor by its symmetry orbit: the reducer canonicalises in scratch it
  // owns, so the orbit key adds no allocation per transition either.
  struct Run {
    const char* what;
    const char* program;
    bool por;
    bool rf_quotient;
    bool symmetry;
    std::uint64_t states;
  };
  for (const Run& run :
       {Run{"plain", "store_fan", false, false, false, 109678},
        Run{"por", "store_fan", true, false, false, 58633},
        Run{"rf-quotient", "store_fan", false, true, false, 4812},
        Run{"symmetry", "ticket_worker", false, false, true, 2791},
        Run{"symmetry+por", "ticket_worker", true, false, true, 2097}}) {
    SCOPED_TRACE(run.what);
    const System sys = program(run.program);
    const std::uint64_t per_copy = copy_blocks(lang::initial_config(sys));
    engine::ReachOptions opts;
    opts.num_threads = 1;
    opts.por = run.por;
    opts.rf_quotient = run.rf_quotient;
    opts.symmetry = run.symmetry;
    engine::ReachResult result;
    const std::uint64_t blocks = allocations_of([&] {
      result = engine::visit_reachable(
          sys, opts,
          [](const Config&, std::uint64_t, std::span<const lang::Step>) {
            return true;
          });
    });
    ASSERT_EQ(result.stats.states, run.states);
    ASSERT_GT(result.stats.transitions, 3 * result.stats.states);
    EXPECT_LE(blocks, result.stats.states * 2 * per_copy)
        << blocks << " blocks for " << result.stats.states << " states ("
        << per_copy << " per Config copy)";
  }
}

}  // namespace
