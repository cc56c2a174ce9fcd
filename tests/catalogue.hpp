// The litmus, causality and race catalogues: each entry names a corpus
// program under tools/programs/ and states by hand what RC11 RAR must do
// with it.
//   * A litmus entry's `allowed` is its exact outcome set over `observed`:
//     every weak behaviour it lists must appear and nothing else may.
//   * A causality entry's outcome sets are large, so it lists outcomes that
//     must be reachable (`must_allow`) and outcomes that must not be
//     (`must_forbid`).
//   * A race entry's `racy` is its race verdict, which every engine
//     configuration must reproduce.
// Entry names are where the gtest instance names come from, so they stay
// fixed when a file is renamed.
//
// The header also holds the forms in which tests compare two runs: the
// outcome registers, the final-configuration set and the race set.

#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.hpp"
#include "lang/system.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"

namespace rc11::catalogue {

using Outcomes = std::vector<std::vector<lang::Value>>;

inline std::string program_path(const std::string& file) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + file;
}

/// A corpus program loaded through the parser, with the registers whose
/// final values make up an outcome.
struct Program {
  std::string name;
  std::string file;
  lang::System sys;
  std::vector<lang::Reg> observed;
};

inline Program load(std::string name, std::string file,
                    const std::vector<std::string>& observed = {}) {
  auto parsed = parser::parse_file(program_path(file));
  Program out{std::move(name), std::move(file), std::move(parsed.sys), {}};
  for (const auto& reg : observed) out.observed.push_back(parsed.reg(reg));
  return out;
}

struct Litmus : Program {
  Outcomes allowed;  ///< sorted, as explore::final_register_values returns
};

struct Causality : Program {
  Outcomes must_allow;
  Outcomes must_forbid;
};

struct Race : Program {
  bool racy = false;
};

/// The litmus suite, in the order its pinned state counts are listed.
inline std::vector<Litmus> litmus_tests() {
  const auto entry = [](const char* name, const char* file,
                        const std::vector<std::string>& observed,
                        Outcomes allowed) {
    std::sort(allowed.begin(), allowed.end());
    return Litmus{load(name, file, observed), std::move(allowed)};
  };
  const std::vector<std::string> r1r2 = {"r1", "r2"};
  // IRIW: every combination is allowed under RA, including the
  // SC-violating disagreement (1,0,1,0).
  Outcomes iriw;
  for (lang::Value a = 0; a <= 1; ++a)
    for (lang::Value b = 0; b <= 1; ++b)
      for (lang::Value c = 0; c <= 1; ++c)
        for (lang::Value d = 0; d <= 1; ++d) iriw.push_back({a, b, c, d});
  std::vector<Litmus> tests;
  tests.push_back(entry("MP+rel+acq", "mp_rel_acq.rc11", r1r2,
                        {{0, 0}, {0, 5}, {1, 5}}));
  tests.push_back(entry("MP+rlx", "mp_rlx.rc11", r1r2,
                        {{0, 0}, {0, 5}, {1, 0}, {1, 5}}));
  tests.push_back(entry("SB+rel+acq", "sb.rc11", r1r2,
                        {{0, 0}, {0, 1}, {1, 0}, {1, 1}}));
  tests.push_back(entry("LB+rlx", "lb.rc11", r1r2, {{0, 0}, {0, 1}, {1, 0}}));
  tests.push_back(entry("CoRR", "corr.rc11", r1r2, {{0, 0}, {0, 1}, {1, 1}}));
  tests.push_back(entry("CoWW+reads", "coww_reads.rc11", r1r2,
                        {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}));
  tests.push_back(entry("IRIW+rel+acq", "iriw.rc11",
                        {"r1", "r2", "r3", "r4"}, std::move(iriw)));
  tests.push_back(entry("CAS-agreement", "cas_agreement.rc11", r1r2,
                        {{1, 0}, {0, 1}}));
  tests.push_back(entry("FAI-tickets", "fai_tickets.rc11", r1r2, {{0, 1}, {1, 0}}));
  // Monotone pairs under mo [1,2] or [2,1]; (1,0) and (2,0) are forbidden.
  tests.push_back(entry("2W+reads", "two_writers.rc11", r1r2,
                        {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 1},
                         {2, 2}}));
  tests.push_back(entry("Fig1-stack-MP+rlx", "mp_stack_rlx.rc11", r1r2,
                        {{1, 0}, {1, 5}}));
  tests.push_back(entry("Fig2-stack-MP+sync", "mp_stack.rc11", r1r2, {{1, 5}}));
  return tests;
}

/// The causality chains, in the order their pinned state counts are listed.
inline std::vector<Causality> causality_tests() {
  const auto entry = [](const char* name, const char* file,
                        const std::vector<std::string>& observed,
                        Outcomes must_allow, Outcomes must_forbid) {
    return Causality{load(name, file, observed), std::move(must_allow),
                     std::move(must_forbid)};
  };
  std::vector<Causality> tests;
  // The causality violation (1,1,0): t2 saw x = 1 before publishing y, t3
  // saw the publication but misses x = 1.
  tests.push_back(entry("WRC+rel+acq", "wrc_rel_acq.rc11", {"r1", "r2", "r3"},
                        {{1, 1, 1}, {0, 0, 0}, {1, 0, 0}, {0, 1, 1}},
                        {{1, 1, 0}}));
  tests.push_back(entry("WRC+rlx", "wrc_rlx.rc11", {"r1", "r2", "r3"},
                        {{1, 1, 0}, {1, 1, 1}}, {}));
  tests.push_back(entry("ISA2+rel+acq", "isa2.rc11", {"r1", "r2", "r3"},
                        {{1, 1, 1}, {0, 0, 0}, {1, 0, 0}}, {{1, 1, 0}}));
  // If t2 synchronised (r1 = 1), its write of 1 is placed after the write
  // of 2, so re-reading x can only return 1.
  tests.push_back(entry("S+rel+acq", "s_rel_acq.rc11", {"r1", "r2"},
                        {{1, 1}, {0, 1}, {0, 2}}, {{1, 2}}));
  return tests;
}

/// Programs mixing non-atomic and atomic accesses whose race verdict is
/// known by construction, in the order Race.ClassifiesTheCorpus pins them.
inline std::vector<Race> race_tests() {
  const auto entry = [](const char* name, const char* file, bool racy) {
    return Race{load(name, file), racy};
  };
  std::vector<Race> tests;
  tests.push_back(entry("Race-MP+na+rlx", "mp_na_racy.rc11", true));
  tests.push_back(entry("Race-MP+na+rel+acq", "mp_na_release.rc11", false));
  tests.push_back(entry("Race-DCL+broken", "dcl_broken.rc11", true));
  tests.push_back(entry("Race-DCL+cas+rel+acq", "dcl_init.rc11", false));
  tests.push_back(entry("Race-flag-spin+na", "flag_spin_racy.rc11", true));
  tests.push_back(entry("Race-disjoint+na", "disjoint_na.rc11", false));
  tests.push_back(entry("Race-lock+na", "lock_na.rc11", false));
  // Relaxed MP again: weak but never racy, having no non-atomic access.
  tests.push_back(entry("Race-atomic-only", "mp_rlx.rc11", false));
  // Two identical threads: symmetry reports the mirror-image race only
  // through the orbit closure of the race set.
  tests.push_back(
      entry("Race-elected-writer+na", "fai_elected_race.rc11", true));
  return tests;
}

/// Looks an entry up by name.
template <typename Entry>
Entry find(std::vector<Entry> entries, const std::string& name) {
  for (auto& e : entries) {
    if (e.name == name) return std::move(e);
  }
  throw std::out_of_range("no catalogue entry " + name);
}

/// Every program under tools/programs/ small enough for the exhaustive
/// crosschecks, sorted by file name: all but the workloads sized to be
/// timed.
inline std::vector<std::string> crosscheck_corpus() {
  const std::set<std::string> timed = {
      "store_fan.rc11", "ticket_worker.rc11", "ticket_worker_buggy.rc11"};
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(program_path(""))) {
    const auto file = entry.path().filename().string();
    if (entry.path().extension() == ".rc11" && !timed.count(file)) {
      files.push_back(file);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// All registers of every thread, in thread then declaration order: the
/// full outcome tuple.
inline std::vector<lang::Reg> all_regs(const lang::System& sys) {
  std::vector<lang::Reg> regs;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < sys.num_regs(t); ++r) {
      regs.push_back(lang::Reg{t, r});
    }
  }
  return regs;
}

/// The canonical encodings of a run's final configurations (the explorer
/// sorts them, so equality is set equality).
inline std::vector<std::vector<std::uint64_t>> final_encodings(
    const explore::ExploreResult& result) {
  std::vector<std::vector<std::uint64_t>> encodings;
  encodings.reserve(result.final_configs.size());
  for (const auto& cfg : result.final_configs) {
    encodings.push_back(cfg.encode());
  }
  return encodings;
}

/// The run-independent identity of a race: location + both canonical sites.
using RaceKey = std::array<std::uint64_t, 7>;

inline std::vector<RaceKey> race_keys(const race::RaceResult& result) {
  std::vector<RaceKey> keys;
  keys.reserve(result.races.size());
  for (const auto& r : result.races) {
    keys.push_back({r.record.loc, r.record.prior.thread, r.record.prior.pc,
                    static_cast<std::uint64_t>(r.record.prior.cat),
                    r.record.current.thread, r.record.current.pc,
                    static_cast<std::uint64_t>(r.record.current.cat)});
  }
  return keys;
}

/// gtest instance name of an entry: its name with every non-alphanumeric
/// character replaced by '_'.
inline std::string param_name(std::string name) {
  for (auto& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

}  // namespace rc11::catalogue
