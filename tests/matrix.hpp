// The differential matrix: what every configuration must agree on with a
// plain run, stated once per configuration.
//
// Each input program has one reference: explore::explore and race::check
// with default options (one worker, no reduction), each run at most once.
// Each row of rows() names one configuration, the input families it runs
// on and what its run must agree on with the reference.  test_matrix.cpp
// instantiates one test per input and runs every row that covers it; a
// test whose program is not a matrix input (store_fan, too large to run
// under every row) calls check() with the rows it needs.

#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalogue.hpp"
#include "engine/reach.hpp"
#include "explore/explorer.hpp"
#include "lang/config.hpp"
#include "memsem/validate.hpp"
#include "race/race.hpp"

namespace rc11::matrix {

/// The input families; a row runs on the families it names.
enum Family : unsigned {
  kUnlisted = 0,          ///< a program checked outside test_matrix
  kCorpus = 1U << 0,      ///< catalogue::crosscheck_corpus()
  kCaseStudy = 1U << 1,   ///< Peterson, Dekker and the barrier
  kCompute = 1U << 2,     ///< testgen::mp_compute and mp_spin_compute
  kLockClient = 1U << 3,  ///< lock clients, and a client of the locked stack
  kSweep = 1U << 4,       ///< testgen's generated small programs
};

/// One program and what the catalogues say about it.
struct Input {
  std::string name;
  Family family = kUnlisted;
  lang::System sys;
  /// A litmus entry's observed registers and exact outcome set.
  std::vector<lang::Reg> observed{};
  std::optional<catalogue::Outcomes> allowed{};
  /// The race catalogue's verdict; every other program is race-free.
  bool racy = false;
};

/// P1's invariant: the memory state is well formed, and every transition
/// out of it moves every view forward.
inline std::optional<std::string> well_formed(const lang::System& sys,
                                              const lang::Config& cfg) {
  if (auto err = memsem::validate(cfg.mem)) return err;
  for (const auto& step : lang::successors(sys, cfg)) {
    if (auto err = memsem::validate_view_monotone(cfg.mem, step.after.mem)) {
      return err;
    }
  }
  return std::nullopt;
}

/// The plain runs of one input, each made on first use.  A listed input's
/// explore run evaluates well_formed at every reachable state, which the
/// Validates row then checks.
class Reference {
 public:
  explicit Reference(const Input& input) : input_(input) {}

  const explore::ExploreResult& run() {
    if (!run_) {
      run_ = explore::explore(input_.sys, {},
                              input_.family == kUnlisted
                                  ? explore::Invariant{}
                                  : explore::Invariant{well_formed});
    }
    return *run_;
  }

  const race::RaceResult& races() {
    if (!races_) races_ = race::check(input_.sys, {});
    return *races_;
  }

 private:
  const Input& input_;
  std::optional<explore::ExploreResult> run_;
  std::optional<race::RaceResult> races_;
};

/// What a row's run must agree on with the reference.
enum class Agree {
  /// The same graph: states, transitions, finals, blocked, the final set.
  SameGraph,
  /// The final set, the blocked count and truncation; states <= plain.
  Finals,
  /// The outcome set (every register), whether a deadlock exists and
  /// truncation; states <= plain.  The rf quotient keeps one concrete
  /// representative per class, so its final configurations differ.
  Outcomes,
  /// The race set; an exhaustive run is not truncated.
  RaceSet,
  /// The plain race verdict equals the catalogue's (the row runs nothing).
  RaceVerdict,
  /// P1: well_formed holds along the whole reference run (the row runs
  /// nothing).
  Validates,
  /// P2: every outcome under the SC model is a plain outcome.
  ScSubset,
  /// P3: raw timestamps give the plain outcome set (canonicalisation is a
  /// pure quotient).
  RawTimestamps,
};

struct Row {
  std::string name;  ///< the configuration; "/N" is its worker count
  unsigned families;
  Agree agree;
  engine::RunControl control;
};

/// The table.  A litmus entry's outcome set must also equal its `allowed`
/// set under every explore row.
inline std::vector<Row> rows() {
  const unsigned programs = kCorpus | kCaseStudy | kCompute | kLockClient;
  const unsigned all = programs | kSweep;
  const auto run = [](unsigned workers, bool por, bool symmetry, bool rf) {
    engine::RunControl control;
    control.num_threads = workers;
    control.por = por;
    control.symmetry = symmetry;
    control.rf_quotient = rf;
    return control;
  };
  engine::RunControl sampled;
  sampled.mode = engine::Strategy::Sample;
  sampled.sample.episodes = 3000;
  return {
      {"plain/2", programs, Agree::SameGraph, run(2, false, false, false)},
      {"plain/8", programs, Agree::SameGraph, run(8, false, false, false)},
      {"por/1", programs, Agree::Finals, run(1, true, false, false)},
      {"por/4", programs, Agree::Finals, run(4, true, false, false)},
      {"symmetry/1", programs, Agree::Finals, run(1, false, true, false)},
      {"symmetry/4", programs, Agree::Finals, run(4, false, true, false)},
      {"symmetry+por/1", programs, Agree::Finals, run(1, true, true, false)},
      {"symmetry+por/4", programs, Agree::Finals, run(4, true, true, false)},
      {"rf/1", all, Agree::Outcomes, run(1, false, false, true)},
      {"rf/4", programs, Agree::Outcomes, run(4, false, false, true)},
      {"rf+por/1", programs, Agree::Outcomes, run(1, true, false, true)},
      {"rf+por/4", programs, Agree::Outcomes, run(4, true, false, true)},
      // The race reference is race/1 without reductions.
      {"race+por/1", kCorpus, Agree::RaceSet, run(1, true, false, false)},
      {"race+symmetry/1", kCorpus, Agree::RaceSet, run(1, false, true, false)},
      {"race+symmetry+por/1", kCorpus, Agree::RaceSet,
       run(1, true, true, false)},
      {"race/4", kCorpus, Agree::RaceSet, run(4, false, false, false)},
      {"race+por/4", kCorpus, Agree::RaceSet, run(4, true, false, false)},
      {"race+symmetry/4", kCorpus, Agree::RaceSet, run(4, false, true, false)},
      {"race+symmetry+por/4", kCorpus, Agree::RaceSet,
       run(4, true, true, false)},
      {"race+rf/1", kCorpus | kSweep, Agree::RaceSet,
       run(1, false, false, true)},
      // Enough episodes to reach every race of these small state spaces;
      // in general a sampled race set is a lower bound.
      {"race sampled", kCorpus, Agree::RaceSet, sampled},
      {"race verdict", kCorpus, Agree::RaceVerdict, {}},
      {"P1 well-formed", all, Agree::Validates, {}},
      {"P2 SC subset", kSweep, Agree::ScSubset, {}},
      {"P3 raw timestamps", kSweep, Agree::RawTimestamps, {}},
  };
}

inline std::vector<std::vector<lang::Value>> outcomes(
    const lang::System& sys, const explore::ExploreResult& result) {
  return explore::final_register_values(sys, result, catalogue::all_regs(sys));
}

/// Runs `row` on `input` and checks what the row must agree on with the
/// reference.  Returns the row's explore run, for rows that make one.
inline std::optional<explore::ExploreResult> check(const Row& row,
                                                   const Input& input,
                                                   Reference& reference) {
  const std::string where = input.name + " under " + row.name;
  switch (row.agree) {
    case Agree::SameGraph:
    case Agree::Finals:
    case Agree::Outcomes: {
      explore::ExploreOptions opts;
      static_cast<engine::RunControl&>(opts) = row.control;
      auto r = explore::explore(input.sys, opts);
      const auto& ref = reference.run();
      if (row.agree == Agree::SameGraph) {
        EXPECT_EQ(r.stats.states, ref.stats.states) << where;
        EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << where;
        EXPECT_EQ(r.stats.finals, ref.stats.finals) << where;
      }
      if (row.agree == Agree::Outcomes) {
        EXPECT_EQ(outcomes(input.sys, r), outcomes(input.sys, ref))
            << where << ": outcome sets differ";
        EXPECT_EQ(r.stats.blocked == 0, ref.stats.blocked == 0)
            << where << ": deadlock existence differs";
      } else {
        EXPECT_EQ(catalogue::final_encodings(r),
                  catalogue::final_encodings(ref))
            << where << ": final-state sets differ";
        EXPECT_EQ(r.stats.blocked, ref.stats.blocked)
            << where << ": blocked counts differ";
      }
      EXPECT_EQ(r.truncated, ref.truncated) << where;
      EXPECT_LE(r.stats.states, ref.stats.states)
          << where << ": a reduction may never visit more states";
      if (input.allowed) {
        EXPECT_EQ(explore::final_register_values(input.sys, r, input.observed),
                  *input.allowed)
            << where << ": outcome set is not the litmus entry's";
      }
      return r;
    }
    case Agree::RaceSet: {
      const auto& ref = reference.races();
      EXPECT_FALSE(ref.truncated) << where;
      race::RaceOptions opts;
      static_cast<engine::RunControl&>(opts) = row.control;
      const auto r = race::check(input.sys, opts);
      if (row.control.mode == engine::Strategy::Exhaustive) {
        EXPECT_FALSE(r.truncated) << where;
      }
      EXPECT_EQ(catalogue::race_keys(r), catalogue::race_keys(ref))
          << where << ": race sets differ";
      return std::nullopt;
    }
    case Agree::RaceVerdict: {
      const auto& ref = reference.races();
      EXPECT_FALSE(ref.truncated) << where;
      EXPECT_EQ(ref.racy(), input.racy) << where;
      return std::nullopt;
    }
    case Agree::Validates: {
      const auto& ref = reference.run();
      EXPECT_TRUE(ref.violations.empty())
          << where << ": " << ref.violations[0].what;
      EXPECT_FALSE(ref.truncated) << where;
      return std::nullopt;
    }
    case Agree::ScSubset:
    case Agree::RawTimestamps: {
      auto sys = input.sys;
      auto sem = sys.options();
      if (row.agree == Agree::ScSubset) {
        sem.model = memsem::MemoryModel::SC;
      } else {
        sem.canonical_timestamps = false;
      }
      sys.set_options(sem);
      explore::ExploreOptions opts;
      static_cast<engine::RunControl&>(opts) = row.control;
      const auto got = outcomes(sys, explore::explore(sys, opts));
      const auto plain = outcomes(input.sys, reference.run());
      if (row.agree == Agree::ScSubset) {
        EXPECT_TRUE(std::includes(plain.begin(), plain.end(), got.begin(),
                                  got.end()))
            << where << ": an SC outcome is not an RC11 outcome";
      } else {
        EXPECT_EQ(got, plain) << where;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// The row called `name`.
inline Row row(const std::string& name) {
  for (auto& r : rows()) {
    if (r.name == name) return r;
  }
  throw std::out_of_range("no matrix row " + name);
}

}  // namespace rc11::matrix
