// State-representation exactness: the interned visited set (and its
// lock-striped wrapper) must be indistinguishable from a reference
// std::set<std::vector<uint64_t>> oracle — over full explorations of every
// small corpus program, over adversarial randomized inserts, and
// under forced digest collisions.  Also pins down the encode()/encode_into
// equivalence, the pooled-StepBuffer/vector successor equivalence the
// hot-path rewiring relies on, and the canonical encoding itself against
// recorded constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/reach.hpp"
#include "catalogue.hpp"
#include "containers/container_objects.hpp"
#include "engine/sharded_visited.hpp"
#include "lang/config.hpp"
#include "parser/parser.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using lang::Config;
using lang::System;
using support::InternedWordSet;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

/// Explores `sys` by BFS, deduplicating with the std::set oracle while
/// mirroring every insert into an InternedWordSet and a ShardedVisitedSet.
/// Every novelty verdict must agree with the oracle's, for every state the
/// semantics can reach in `sys` (bounded for safety).
void check_oracle_equivalence(const System& sys, const std::string& what) {
  std::set<std::vector<std::uint64_t>> oracle;
  InternedWordSet interned;
  engine::ShardedVisitedSet sharded(8);

  const auto insert_all = [&](const Config& cfg) {
    const auto enc = cfg.encode();
    const bool fresh = oracle.insert(enc).second;
    EXPECT_EQ(interned.insert(enc), fresh) << what;
    EXPECT_EQ(sharded.insert(enc), fresh) << what;
    return fresh;
  };

  std::deque<Config> frontier;
  {
    Config init = lang::initial_config(sys);
    insert_all(init);
    frontier.push_back(std::move(init));
  }
  std::uint64_t expanded = 0;
  while (!frontier.empty() && expanded < 200'000) {
    Config cfg = std::move(frontier.front());
    frontier.pop_front();
    expanded += 1;
    for (auto& step : lang::successors(sys, cfg)) {
      // Duplicates are re-offered on purpose: the visited sets must refuse
      // them exactly when the oracle does.
      if (insert_all(step.after)) frontier.push_back(std::move(step.after));
    }
  }
  EXPECT_EQ(interned.size(), oracle.size()) << what;
  EXPECT_EQ(sharded.size(), oracle.size()) << what;
  EXPECT_GT(interned.bytes(), 0u) << what;
  for (const auto& enc : oracle) {
    EXPECT_TRUE(interned.contains(enc)) << what;
  }
}

TEST(StateRepr, OracleEquivalenceOverSamplePrograms) {
  for (const auto& name : catalogue::crosscheck_corpus()) {
    const auto program = parser::parse_file(prog(name));
    check_oracle_equivalence(program.sys, name);
  }
}

TEST(StateRepr, EncodeIntoMatchesEncode) {
  for (auto& test : catalogue::litmus_tests()) {
    std::vector<std::uint64_t> scratch;
    std::deque<Config> frontier;
    std::set<std::vector<std::uint64_t>> seen;
    frontier.push_back(lang::initial_config(test.sys));
    while (!frontier.empty() && seen.size() < 500) {
      Config cfg = std::move(frontier.front());
      frontier.pop_front();
      const auto fresh_vec = cfg.encode();
      scratch.clear();
      cfg.encode_into(scratch);
      EXPECT_EQ(scratch, fresh_vec) << test.name;
      // encode_into appends: a second call must yield the concatenation.
      cfg.encode_into(scratch);
      ASSERT_EQ(scratch.size(), 2 * fresh_vec.size()) << test.name;
      EXPECT_TRUE(std::equal(fresh_vec.begin(), fresh_vec.end(),
                             scratch.begin() + static_cast<std::ptrdiff_t>(
                                                   fresh_vec.size())))
          << test.name;
      if (!seen.insert(fresh_vec).second) continue;
      for (auto& step : lang::successors(test.sys, cfg)) {
        frontier.push_back(std::move(step.after));
      }
    }
  }
}

template <typename Tweak>
System with_options(System sys, Tweak tweak) {
  auto sem = sys.options();
  tweak(sem);
  sys.set_options(sem);
  return sys;
}

// The pooled slots are refilled under the rule the drivers follow: a
// successor that enters the frontier is moved out of its slot, and a
// duplicate stays behind.  So a refill copy-assigns into a moved-from slot or
// into one holding a state of another size, and both must produce exactly
// the successor a fresh vector gets.  The systems include race detection (a
// stale slot's race records must not leak into the next step) and lock,
// stack and queue objects (object_op appends to mo in reused slots).
TEST(StateRepr, PooledSuccessorsMatchVectorSuccessors) {
  std::vector<std::pair<std::string, System>> systems;
  for (auto& test : catalogue::litmus_tests()) {
    systems.emplace_back(test.name, test.sys);
  }
  for (auto& test : catalogue::race_tests()) {
    systems.emplace_back(test.name + " race-detected",
                         with_options(test.sys, [](auto& s) {
                           s.race_detection = true;
                         }));
  }
  for (const char* name :
       {"lock_client_abstract.rc11", "mp_stack.rc11", "ticket_lock.rc11"}) {
    systems.emplace_back(name, parser::parse_file(prog(name)).sys);
  }
  containers::AbstractContainer queue(memsem::LocKind::Queue);
  systems.emplace_back(
      "queue pipeline(2)",
      containers::instantiate(containers::producer_consumer_client(2), queue));

  lang::StepBuffer buf;  // deliberately reused across states and systems
  for (const auto& [name, sys] : systems) {
    std::deque<Config> frontier;
    std::set<std::vector<std::uint64_t>> seen;
    const Config init = lang::initial_config(sys);
    Config largest = init;
    frontier.push_back(init);
    while (!frontier.empty() && seen.size() < 300) {
      Config cfg = std::move(frontier.front());
      frontier.pop_front();
      if (!seen.insert(cfg.encode()).second) continue;
      if (cfg.mem.num_ops() > largest.mem.num_ops()) largest = cfg;
      const auto fresh = lang::successors(sys, cfg, /*want_labels=*/true);
      lang::successors(sys, cfg, buf, /*want_labels=*/true);
      ASSERT_EQ(buf.size(), fresh.size()) << name;
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const auto& pooled = buf.steps()[i];
        EXPECT_EQ(pooled.thread, fresh[i].thread) << name;
        EXPECT_EQ(pooled.label, fresh[i].label) << name;
        EXPECT_EQ(pooled.after.encode(), fresh[i].after.encode()) << name;
        EXPECT_TRUE(std::ranges::equal(pooled.after.mem.race_records(),
                                       fresh[i].after.mem.race_records()))
            << name;
      }
      // Every other slot's state is moved out, as a driver does with a new
      // state; the rest are left holding a smaller or a larger state than
      // the next refill brings.
      for (std::size_t i = 0; i < buf.size(); ++i) {
        Config& slot = buf.steps()[i].after;
        if (i % 2 == 0) {
          const Config gone = std::move(slot);
        } else {
          slot = i % 4 == 1 ? init : largest;
        }
      }
      for (const auto& step : fresh) frontier.push_back(step.after);
    }
  }
}

/// What an exhaustive one-thread exploration produces, condensed into four
/// numbers that any change to a single encoded word would move: the state
/// count, the total number of key words, a wrapping sum of hash_words over
/// every key, and the digest of the initial state's key.
struct EncodingPin {
  std::uint64_t states = 0;
  std::uint64_t words = 0;
  std::uint64_t hash_sum = 0;
  std::uint64_t init_digest = 0;
};

/// Explores `sys` under `reach` and pins the visited states' keys: the
/// canonical encoding when `abs` is null, otherwise `abs`'s abstract key.
EncodingPin pin_encodings(const System& sys, engine::ReachOptions reach,
                          const engine::StateAbstraction* abs) {
  reach.num_threads = 1;
  EncodingPin pin;
  engine::AbstractKey key;
  std::vector<std::uint64_t> scratch;
  const auto key_of =
      [&](const Config& cfg) -> const std::vector<std::uint64_t>& {
        if (abs != nullptr) {
          abs->key(cfg, key);
          return key.encoding;
        }
        scratch.clear();
        cfg.encode_into(scratch);
        return scratch;
      };
  const Config init = lang::initial_config(sys);
  pin.init_digest = abs != nullptr ? support::hash_words(key_of(init))
                                   : witness::config_digest(init);
  const auto result = engine::visit_reachable(
      sys, reach,
      [&](const Config& cfg, std::uint64_t, std::span<const lang::Step>) {
        const auto& words = key_of(cfg);
        pin.states += 1;
        pin.words += words.size();
        pin.hash_sum += support::hash_words(words);
        return true;
      });
  EXPECT_EQ(result.stop, engine::StopReason::Complete);
  return pin;
}

void expect_pin(const EncodingPin& got, const EncodingPin& want) {
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.hash_sum, want.hash_sum);
  EXPECT_EQ(got.init_digest, want.init_digest);
}

// Saved witnesses (after_digest), checkpoints (raw encoding words) and the
// benchmark's expected visited bytes all depend on the exact canonical
// encoding.  Every other encoding test compares the encoder with itself;
// this one compares it with constants recorded before the flat MemState
// layout, so a representation change that alters a single word fails here.
// The programs cover every operation kind and every semantics switch, and
// the two quotient keys (rf quotient, symmetry orbit) are pinned the same
// way on two programs each, one of them race-detected.
TEST(StateRepr, CanonicalEncodingPinned) {
  const auto file = [](const char* name) {
    return parser::parse_file(prog(name)).sys;
  };
  containers::AbstractContainer queue(memsem::LocKind::Queue);
  struct Case {
    const char* what;
    System sys;
    EncodingPin want;
  };
  const Case cases[] = {
      {"store_fan", file("store_fan.rc11"),
       {109678, 11912524, 0xb3ff22289d179b72, 0xb5a1b44fda239d1a}},
      {"ticket_lock", file("ticket_lock.rc11"),
       {47, 2483, 0x0958fa8691600487, 0xec6450ee0803a26e}},
      {"mp_stack", file("mp_stack.rc11"),
       {12, 339, 0x847da242a33d05f7, 0xed4246dd2ba7da54}},
      {"lock_client_seqlock", file("lock_client_seqlock.rc11"),
       {113, 5679, 0xd5343b7589f4492c, 0x3abfd815db42a164}},
      {"lock_client_abstract", file("lock_client_abstract.rc11"),
       {17, 919, 0xb4cdee9a40f5a869, 0xc5a386498db8f6e7}},
      {"queue pipeline(2)",
       containers::instantiate(containers::producer_consumer_client(2), queue),
       {16, 288, 0x096d97e280a85c5f, 0x94a2ed79b70b1107}},
      {"mp_na_racy race-detected",
       with_options(file("mp_na_racy.rc11"),
                    [](auto& s) { s.race_detection = true; }),
       {13, 631, 0x02bb91484dc2b650, 0x11419eac8ccf2802}},
      {"sb SC",
       with_options(file("sb.rc11"),
                    [](auto& s) { s.model = memsem::MemoryModel::SC; }),
       {13, 386, 0xead8bbdd5fcc5063, 0xc78831c2f78ba022}},
      {"two_writers raw timestamps",
       with_options(file("two_writers.rc11"),
                    [](auto& s) { s.canonical_timestamps = false; }),
       {55, 1542, 0x575580ed3142ad9e, 0xfa4f09da788abd5d}},
      {"mp_stack without ctview",
       with_options(file("mp_stack.rc11"),
                    [](auto& s) { s.cross_component_view_transfer = false; }),
       {13, 371, 0xbe9ea47928a2385b, 0xed4246dd2ba7da54}},
      {"ticket_lock without covered",
       with_options(file("ticket_lock.rc11"),
                    [](auto& s) { s.enforce_covered = false; }),
       {167, 9587, 0xad028690d77c8ed6, 0xec6450ee0803a26e}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    expect_pin(pin_encodings(c.sys, {}, nullptr), c.want);
  }
  // The quotient keys, each explored under its own reduction.  The
  // race-detected keys carry the clock words: relabelled under symmetry,
  // whole under the rf quotient.
  const auto race_detected = [&](const char* name) {
    return with_options(file(name), [](auto& s) { s.race_detection = true; });
  };
  struct KeyCase {
    const char* what;
    System sys;
    bool symmetry;  ///< the symmetry key; otherwise the rf-quotient key
    EncodingPin want;
  };
  const KeyCase key_cases[] = {
      {"store_fan rf-quotient key", file("store_fan.rc11"), false,
       {4812, 229496, 0x8e195d4fb6bf1510, 0x4a2dbea34e8453e5}},
      {"ticket_worker symmetry key", file("ticket_worker.rc11"), true,
       {2791, 314430, 0xaa55cec85c7376ae, 0x04887992e77a65bd}},
      {"dcl_init race-detected symmetry key", race_detected("dcl_init.rc11"),
       true, {48, 3974, 0x5e7fddde1d161bef, 0x1ae99de13e24bc41}},
      {"dcl_broken race-detected rf-quotient key",
       race_detected("dcl_broken.rc11"), false,
       {69, 3372, 0x22a357a3f45ec36b, 0x3a439c3e38756085}},
  };
  for (const KeyCase& c : key_cases) {
    SCOPED_TRACE(c.what);
    engine::ReachOptions reach;
    reach.symmetry = c.symmetry;
    reach.rf_quotient = !c.symmetry;
    const engine::StateAbstraction abs(c.sys, reach);
    expect_pin(pin_encodings(c.sys, reach, &abs), c.want);
  }
}

TEST(StateRepr, ForcedDigestCollisionsStayExact) {
  InternedWordSet set;
  // Adversarial digests: every sequence claims the same fingerprint, so
  // novelty must be decided by the stored encodings alone.
  const std::uint64_t digest = 0xdeadbeefULL;
  std::vector<std::vector<std::uint64_t>> seqs = {
      {}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {1ULL << 40}, {0x7f}, {0x80},
      {0x7f, 0x80}, {~0ULL}, {~0ULL, ~0ULL},
  };
  for (const auto& s : seqs) EXPECT_TRUE(set.insert(s, digest)) << s.size();
  for (const auto& s : seqs) EXPECT_FALSE(set.insert(s, digest)) << s.size();
  EXPECT_EQ(set.size(), seqs.size());
}

TEST(StateRepr, RandomizedInsertsMatchOracle) {
  std::mt19937_64 rng(0xc0ffee);  // fixed seed: reproducible
  std::set<std::vector<std::uint64_t>> oracle;
  InternedWordSet interned;
  engine::ShardedVisitedSet sharded(4);
  for (int round = 0; round < 20'000; ++round) {
    std::vector<std::uint64_t> words(rng() % 12);
    for (auto& w : words) {
      // Mix tiny values (one varint byte) with full-width ones so every
      // varint length is exercised.
      const auto shift = rng() % 64;
      w = rng() >> shift;
    }
    const bool fresh = oracle.insert(words).second;
    ASSERT_EQ(interned.insert(words), fresh) << "round " << round;
    ASSERT_EQ(sharded.insert(words), fresh) << "round " << round;
  }
  EXPECT_EQ(interned.size(), oracle.size());
  EXPECT_EQ(sharded.size(), oracle.size());
  for (const auto& words : oracle) EXPECT_TRUE(interned.contains(words));
}

}  // namespace
