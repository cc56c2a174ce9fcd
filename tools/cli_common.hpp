// tools/cli_common.hpp
//
// Flag parsing, exit-code conventions and output helpers shared by the four
// command-line binaries (rc11-run, rc11-verify, rc11-race, rc11-refine).
// Every flag that means the same thing in more than one tool — --max-states,
// --threads, --por, --stats, --json, --witness, --replay — is parsed here
// exactly once, so the tools cannot drift apart in spelling, value handling
// or exit codes.

#pragma once

#include <charconv>
#include <cstdint>
#include <string>

#include "engine/reach.hpp"
#include "lang/system.hpp"
#include "witness/json.hpp"
#include "witness/witness.hpp"

namespace rc11::cli {

// Exit-code conventions, uniform across the four tools:
//   0 success (outcomes printed / outline valid / refinement holds)
//   1 usage or parse errors
//   2 definite negative verdict (invariant violation, outline invalid,
//     refinement fails, witness replay diverged)
//   3 inconclusive (a state or product bound was hit; verdicts unreliable)
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitFail = 2;
inline constexpr int kExitInconclusive = 3;

/// Whole-string numeric parse; rejects "abc", "8x", "" instead of aborting.
template <typename T>
[[nodiscard]] bool parse_num(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// The flags every tool accepts, with their shared defaults.  The
/// engine::Reduction base takes --por, --symmetry, --rf-quotient and
/// --strategy exhaustive|por|sample[:N] (`--strategy por` is exhaustive with
/// `por` set; `sample:N` sets sample.episodes), and --seed S sets
/// sample.seed.  The tools hand the base to their checker in one slice
/// assignment.
struct CommonOptions : engine::Reduction {
  std::uint64_t max_states = 1'000'000;
  unsigned num_threads = 1;  ///< 0 = hardware concurrency
  bool seed_set = false;  ///< --seed was given (only meaningful with sample)
  bool stats = false;        ///< print exploration statistics
  std::string witness_path;  ///< write first counterexample as JSON witness
  std::string replay_path;   ///< re-execute a JSON witness instead of checking
  std::string json_path;     ///< write a machine-readable run summary
  // Resource governance (engine::Budget semantics; 0 = unlimited/none).
  std::uint64_t max_visited_bytes = 0;  ///< --mem-budget BYTES[K|M|G]
  std::uint64_t deadline_ms = 0;        ///< --deadline-ms MS (wall clock)
  std::string checkpoint_path;  ///< --checkpoint FILE: save on early stop
  std::string resume_path;      ///< --resume FILE: continue a saved run
};

/// Usage-line fragment for the shared flags (tools append their own).
inline constexpr const char* kCommonUsage =
    "[--max-states N] [--threads N] [--por] [--symmetry] "
    "[--rf-quotient] [--strategy exhaustive|por|sample[:N]] [--seed S] "
    "[--stats] [--json FILE] [--witness FILE] [--replay FILE] "
    "[--deadline-ms MS] [--mem-budget BYTES[K|M|G]] [--checkpoint FILE] "
    "[--resume FILE]";

/// Byte-count parse for --mem-budget: a whole number with an optional
/// binary-unit suffix (K, M or G, case-insensitive).  Rejects overflow.
[[nodiscard]] bool parse_bytes(const std::string& s, std::uint64_t& out);

/// The largest --threads value the tools accept.  Each worker gets its own
/// thread and abstraction state, so the bound turns an absurd request into
/// a usage error instead of a failed thread start.
inline constexpr unsigned kMaxThreads = 1024;

enum class FlagStatus : std::uint8_t {
  Consumed,  ///< argv[i] (plus its value, if any) was a common flag
  NotMine,   ///< not a common flag; the tool should try its own
  Error,     ///< common flag with a missing or malformed value
};

/// Tries to consume argv[i] as a common flag, advancing `i` over the flag's
/// value when it takes one.
[[nodiscard]] FlagStatus parse_common_flag(int argc, char** argv, int& i,
                                           CommonOptions& out);

/// Post-parse conflict checking, before any file is read: the engine's
/// rules about the reduction flags (engine::reduction_conflict, with
/// --checkpoint/--resume) and the CLI's own rule that --seed needs
/// --strategy sample.  Returns an error message for the user, or an empty
/// string when the options are consistent.
[[nodiscard]] std::string resolve_strategy(const CommonOptions& opts);

/// The `"strategy"` field of the tools' --json reports: "exhaustive",
/// "por" (exhaustive with --por, however spelled) or "sample".
[[nodiscard]] const char* strategy_name(const CommonOptions& opts);

/// Installs SIGINT/SIGTERM handlers that trip a process-wide
/// engine::CancelToken and returns that token, so a Ctrl-C drains the
/// exploration workers and the tool still emits its partial report (and a
/// --checkpoint file) before exiting with kExitInconclusive.  The handler
/// re-arms the default disposition, so a *second* signal kills the process
/// the traditional way.  Async-signal-safe: the handler only performs a
/// relaxed atomic store and a sigaction reset.
[[nodiscard]] const engine::CancelToken* install_signal_cancel();

/// Human-readable phrase for why a run stopped, with the flag to raise,
/// e.g. "the state cap was reached (raise --max-states)".
[[nodiscard]] std::string describe_stop(engine::StopReason stop);

/// The shared --replay implementation: load the witness at
/// `opts.replay_path`, re-execute it against `sys`, narrate the outcome.
/// Returns kExitOk when every step replays, kExitFail otherwise.
[[nodiscard]] int run_replay(const lang::System& sys,
                             const CommonOptions& opts);

/// The shared --stats block: peak frontier, visited-set memory, — under
/// --por — how much the reduction saved (reduced expansions and states
/// skipped by chain collapse), — under --symmetry — orbit-duplicate
/// arrivals merged, sleep-set step skips and the quotient ratio, — under
/// --rf-quotient — concrete arrivals merged into visited classes (counted
/// only when traces are recorded; 0 otherwise) and sleep-set skips, and —
/// under sampling — episodes, episode rate (when `wall_s` > 0; the tools
/// time the run) and the distinct-state coverage estimate.  Rates and
/// ratios go only to this human-readable block, never into --json: CI
/// byte-compares JSON reports for seed determinism.
void print_stats(const engine::ExploreStats& stats,
                 const engine::Reduction& reduction, double wall_s = -1.0);

/// ExploreStats as a JSON object (states, transitions, finals, blocked, the
/// POR, symmetry/sleep and rf-merge counters when non-zero, and `episodes`
/// when sampling) for --json summaries.  Deliberately free of timing data —
/// same seed must produce a byte-identical report.
[[nodiscard]] witness::Json stats_json(const engine::ExploreStats& stats);

/// Writes a --json summary document and narrates where it went.
void write_json_summary(const witness::Json& summary, const std::string& path);

/// The shared --witness emission: minimize `w` against `sys`, save it to
/// `path` and narrate the step count.
void write_witness(const lang::System& sys, const witness::Witness& w,
                   const std::string& path);

}  // namespace rc11::cli
