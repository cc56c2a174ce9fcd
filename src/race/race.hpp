// rc11lib/race/race.hpp
//
// Data-race detection over the shared reachability engine.
//
// RC11 declares a program racy when two conflicting accesses — same
// location, at least one a write, at least one non-atomic — are unordered
// by happens-before.  The paper's semantics never needed this judgement
// (its case studies are all-atomic), but any C11-style library that mixes
// plain fields with atomics does: a race means undefined behaviour, so the
// verdict gates every other property.
//
// The detection itself lives inside the memory semantics (memsem/state.cpp)
// behind SemanticsOptions::race_detection: each thread carries a vector
// clock advanced at releasing operations and joined at genuine
// synchronisation edges, and each (location, thread, access-category) cell
// remembers the epoch of its last access, FastTrack-style.  A step whose
// access is concurrent (by those clocks) with a recorded conflicting access
// deposits a RaceRecord on the post-state.  This module is the thin checker
// on top: it drives engine::visit_reachable over the system (with the flag
// forced on), harvests each step's records, canonicalises and deduplicates
// them, orbit-closes under thread symmetry, and attaches replayable
// witnesses naming both access sites.
//
// Soundness under the reductions mirrors the other checkers (DESIGN.md):
// ample steps are local, so they neither synchronise nor conflict with
// another thread, and deferring them changes no clock and no contested
// summary cell — the reduced graph reports the same race set.  Under the
// symmetry quotient a permuted execution reports the thread-permuted record,
// so the full set is restored by closing each record under the group (a
// permuted execution of a racy trace is itself a real racy execution).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/reach.hpp"
#include "lang/config.hpp"
#include "memsem/state.hpp"
#include "witness/witness.hpp"

namespace rc11::race {

using lang::Config;
using lang::System;
using memsem::RaceAccess;
using memsem::RaceCat;
using memsem::RaceRecord;

/// Human name of an access category ("non-atomic write", …).
[[nodiscard]] const char* access_name(RaceCat cat) noexcept;

/// The race checker's options.  The engine::RunControl base holds the run's
/// reductions, limits and controls (engine/reach.hpp); of the reductions,
/// all are honoured, with the explorer's semantics, and the race set
/// survives each (see the soundness note in the header comment):
///   * rf_quotient — exact without any pinning: race clocks, summary cells
///     and per-op messages are part of the quotient key whenever
///     race_detection is on (memsem encodes them alongside the modification
///     orders), and records surface on step post-states, which pair up
///     class-by-class.
///   * mode == Strategy::Sample — the race set is a lower bound.
/// The *set* of reported races is identical for every thread count; only
/// traces, state dumps and witness choice may differ between runs.
struct RaceOptions : engine::RunControl {
  /// Stop at the first race (default off: cross-checks compare full sets).
  bool stop_on_race = false;
  /// Record parent links so each race carries a trace and a replayable
  /// witness covering both access sites.  NOTE: witnesses from a race run
  /// replay only against a System whose SemanticsOptions::race_detection is
  /// true (the clocks are part of the state encoding the digests cover).
  bool track_traces = false;
};

/// One data race.  `record` is an *unordered* pair in canonical order (the
/// two sides sorted by thread, pc, category): which access the detector saw
/// first depends on the interleaving, so the report must not.
struct ReportedRace {
  RaceRecord record;
  std::string location;    ///< location name (record.loc resolved)
  std::string what;        ///< one-line description naming both sites
  std::string state_dump;  ///< configuration right after the racing step
  std::vector<std::string> trace;  ///< step labels (with a trace sink)
  /// Replayable witness whose final step performs the racing access
  /// (present when the run kept a trace sink — track_traces or
  /// checkpoint_path — and this record was directly observed —
  /// symmetry-closed siblings reuse the representative's trace, flagged by
  /// a trailing note, and carry no witness of their own).
  std::optional<witness::Witness> witness;
};

struct RaceResult {
  engine::ExploreStats stats;
  /// Deduplicated and sorted by (location, both sites), so the set compares
  /// equal across thread counts and reductions.
  std::vector<ReportedRace> races;
  engine::StopReason stop = engine::StopReason::Complete;
  bool truncated = false;  ///< stop != Complete: the race set is a lower bound

  [[nodiscard]] bool racy() const { return !races.empty(); }
  /// Race-free and the search completed: a definitive clean verdict.
  [[nodiscard]] bool clean() const { return races.empty() && !truncated; }
};

/// Checks `sys` for data races.  Runs on a copy with race_detection forced
/// on, so callers keep their zero-overhead encodings; `sys` itself is not
/// modified.
[[nodiscard]] RaceResult check(const System& sys, const RaceOptions& options = {});

}  // namespace rc11::race
