// Paper claims with no other home in the suite, one test per experiment id
// of DESIGN.md §3: each asserts the verdict and the exact state counts of
// the instance it decides.  Claims whose instance another suite already
// runs (the litmus suite, the Fig. 3/7 outlines, the lock simulations, the
// ablations, the reductions) are pinned there; DESIGN.md §3 maps every
// experiment id to its test.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalogue.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/lemma3.hpp"
#include "small_programs.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11;
using explore::ExploreOptions;

lang::System corpus(const std::string& file) {
  return parser::parse_file(catalogue::program_path(file)).sys;
}

lang::System ticket_mgc(unsigned threads, unsigned rounds) {
  locks::TicketLock lock;
  return locks::instantiate(locks::mgc_client(threads, rounds), lock);
}

// F6: the Fig. 6 abstract lock under most-general clients.  Every run
// terminates with the lock free: no blocked states, nothing truncated.
TEST(PaperClaims, F6_AbstractLockClientsTerminate) {
  struct Case {
    unsigned threads, rounds;
    std::uint64_t states;
  };
  for (const auto& c : {Case{2, 1, 17}, Case{2, 2, 73}, Case{3, 1, 61}}) {
    locks::AbstractLock lock;
    const auto sys =
        locks::instantiate(locks::mgc_client(c.threads, c.rounds), lock);
    const auto result = explore::explore(sys);
    const auto what =
        std::to_string(c.threads) + "x" + std::to_string(c.rounds);
    EXPECT_EQ(result.stats.states, c.states) << what;
    EXPECT_EQ(result.stats.blocked, 0u) << what;
    EXPECT_GT(result.stats.finals, 0u) << what;
    EXPECT_FALSE(result.truncated) << what;
  }
}

// L3: the six Hoare rules of Lemma 3 for abstract-lock method calls, each
// valid over the two-round harness and exercised by real instances.
TEST(PaperClaims, L3_LockRulesHoldNonVacuously) {
  const std::uint64_t instances[] = {3, 9, 1, 2, 2, 1};
  const auto results = og::check_lemma3_rules(2);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].rule, static_cast<int>(i + 1));
    EXPECT_TRUE(results[i].valid) << results[i].description;
    EXPECT_EQ(results[i].instances, instances[i]) << results[i].description;
  }
}

// F4-par: the ticket-lock mgc(2,2) client explored by eight workers covers
// the state space one worker does.
TEST(PaperClaims, F4par_EightWorkersExploreTheSameSpace) {
  const auto sys = ticket_mgc(2, 2);
  const auto one = explore::explore(sys);
  ExploreOptions opts;
  opts.num_threads = 8;
  const auto eight = explore::explore(sys, opts);
  EXPECT_EQ(one.stats.states, 331u);
  EXPECT_EQ(eight.stats.states, one.stats.states);
  EXPECT_EQ(eight.stats.transitions, one.stats.transitions);
  EXPECT_EQ(eight.stats.finals, one.stats.finals);
}

// F6: the state-representation workloads.  Their exact sizes pin the
// unreduced and the --por paths; recording traces must not change what is
// explored.
TEST(PaperClaims, F6_ExploreStateCounts) {
  struct Case {
    const char* name;
    lang::System sys;
    ExploreOptions opts;
    std::uint64_t states;
  };
  ExploreOptions traced;
  traced.track_traces = true;
  ExploreOptions por;
  por.por = true;
  locks::TicketLock lock;
  const auto worker_2x2 =
      locks::instantiate(locks::worker_client(2, 2, 4), lock);
  const Case cases[] = {
      {"explore_mp", corpus("mp_rel_acq.rc11"), {}, 13},
      {"explore_iriw", corpus("iriw.rc11"), {}, 98},
      {"explore_ticket_2x2", ticket_mgc(2, 2), {}, 331},
      {"explore_ticket_2x2_traced", ticket_mgc(2, 2), traced, 331},
      {"explore_ticket_3x1", ticket_mgc(3, 1), {}, 514},
      {"explore_ticket_worker_2x2w4", worker_2x2, {}, 515},
      {"explore_ticket_worker_2x2w4_por", worker_2x2, por, 239},
      {"explore_mp_compute_w4", testgen::mp_compute(4), {}, 65},
      {"explore_mp_compute_w4_por", testgen::mp_compute(4), por, 14},
  };
  std::vector<explore::ExploreResult> results;
  for (const auto& c : cases) {
    results.push_back(explore::explore(c.sys, c.opts));
    EXPECT_EQ(results.back().stats.states, c.states) << c.name;
    EXPECT_FALSE(results.back().truncated) << c.name;
  }
  const auto& plain = results[2];
  const auto& with_traces = results[3];
  EXPECT_EQ(with_traces.stats.transitions, plain.stats.transitions);
  EXPECT_EQ(with_traces.stats.finals, plain.stats.finals);
}

/// The visited-set layout the interned arena replaced: a digest index over
/// one heap-allocated encoding vector per state.  Kept only as the
/// comparison point for F6-micro.
class LegacyVisitedSet {
 public:
  void insert(const std::vector<std::uint64_t>& enc) {
    auto& bucket = index_[support::hash_words(enc)];
    for (const auto idx : bucket) {
      if (storage_[idx] == enc) return;
    }
    bucket.push_back(storage_.size());
    storage_.push_back(enc);
  }

  /// Heap footprint, counted low: the map's node overhead is approximated
  /// by its payloads, so a ratio against it is a lower bound.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t b = storage_.capacity() * sizeof(std::vector<std::uint64_t>);
    for (const auto& v : storage_) b += v.capacity() * sizeof(std::uint64_t);
    b += index_.bucket_count() * sizeof(void*);
    for (const auto& [digest, bucket] : index_) {
      b += sizeof(digest) + sizeof(bucket) + sizeof(void*) +
           bucket.capacity() * sizeof(std::size_t);
    }
    return b;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  std::vector<std::vector<std::uint64_t>> storage_;
};

// F6-micro: on every reachable state of the ticket-lock mgc(2,2) client the
// interned visited set takes at most half the bytes of the legacy layout.
TEST(PaperClaims, F6micro_InternedSetHalvesTheLegacyLayout) {
  const auto sys = ticket_mgc(2, 2);
  std::vector<std::vector<std::uint64_t>> encodings;
  (void)engine::visit_reachable(
      sys, engine::ReachOptions{},
      [&](const lang::Config& cfg, std::uint64_t, std::span<const lang::Step>) {
        encodings.push_back(cfg.encode());
        return true;
      });
  ASSERT_EQ(encodings.size(), 331u);
  support::InternedWordSet interned;
  LegacyVisitedSet legacy;
  for (const auto& enc : encodings) {
    EXPECT_TRUE(interned.insert(enc));
    legacy.insert(enc);
  }
  EXPECT_GE(static_cast<double>(legacy.bytes()),
            2.0 * static_cast<double>(interned.bytes()))
      << "interned " << interned.bytes() << " B, legacy >= " << legacy.bytes()
      << " B";
}

}  // namespace
