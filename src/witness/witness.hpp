// rc11lib/witness/witness.hpp
//
// Counterexample witnesses: first-class, machine-readable evidence for every
// failure mode of the toolchain.  The paper's central argument is that an
// *operational* semantics makes verification evidence checkable by
// re-execution; this module is that argument made executable.  A Witness
// records a concrete run of the combined transition relation — a sequence of
// (thread, label, reached-state digest) steps from the initial configuration
// into a violating configuration — together with what went wrong there.
//
//   * Emission: a versioned JSON schema (docs/FORMAT.md §Witness files).
//   * Replay: replay() re-executes the recorded steps through the *real*
//     semantics (lang::successors) and confirms every step is an enabled
//     transition landing on the recorded canonical state — an independent
//     cross-check of both the witness and the semantics, usable as a test
//     oracle.  A tampered or stale witness fails replay with a precise step
//     index.
//   * Minimization: minimize() shrinks a trace before a human sees it — a
//     BFS re-search restricted to the witness's touched states finds a
//     shortest path through them (parallel DFS traces are rarely shortest),
//     first under local-step fusion (local steps commute with every other
//     transition, so forcing them to fire eagerly prunes interleavings
//     without losing the target).
//
// Witnesses are produced by the explorer (invariant violations), the
// Owicki-Gries outline checker (failed obligations) and the refinement
// checkers (unmatchable concrete runs); see the `witness` fields on their
// result types, and the --witness/--replay flags on all three CLI tools.
//
// States travel as 64-bit digests (support::hash_words over the canonical
// encoding) rather than full encodings: digests keep witness files small,
// bind each step to the canonical state quotient, and make corruption
// detectable; the chance of a replay accepting a wrong path requires a
// digest collision among the (tiny) successor set of a single state.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/config.hpp"

namespace rc11::witness {

/// Witness schema version written to and required from JSON files.
inline constexpr std::int64_t kFormatVersion = 1;

/// Sentinel for "any thread" in steps whose acting thread was not recorded.
inline constexpr std::uint32_t kAnyThread = UINT32_MAX;

/// One step of a witness run.
struct WitnessStep {
  std::uint32_t thread = kAnyThread;  ///< acting thread (kAnyThread if unknown)
  std::string label;                  ///< human-readable step description
  std::uint64_t after_digest = 0;     ///< canonical digest of the reached state

  friend bool operator==(const WitnessStep&, const WitnessStep&) = default;
};

/// A complete counterexample witness.
struct Witness {
  std::int64_t version = kFormatVersion;
  std::string kind;        ///< "invariant" | "outline" | "refinement"
  std::string source;      ///< producing check, e.g. "explore", "rc11-verify"
  std::string what;        ///< violated property, human-readable
  std::string state_dump;  ///< pretty-printed violating configuration
  std::uint64_t initial_digest = 0;  ///< digest of the initial configuration
  std::vector<WitnessStep> steps;    ///< run from the initial configuration

  /// Digest of the final (violating) state: the last step's target, or the
  /// initial state for empty runs (a violation at the initial configuration).
  [[nodiscard]] std::uint64_t final_digest() const {
    return steps.empty() ? initial_digest : steps.back().after_digest;
  }

  friend bool operator==(const Witness&, const Witness&) = default;
};

/// Canonical digest of a configuration (hash_words over encode()); the
/// digest stored in WitnessStep::after_digest.
[[nodiscard]] std::uint64_t config_digest(const lang::Config& cfg);

/// Fixed-width "0x" + 16-nibble rendering of a 64-bit word, and its inverse.
/// This is how digests travel in witness files and how raw encoding words
/// travel in checkpoint files (engine/checkpoint.hpp) — JSON numbers cannot
/// hold a full uint64 portably.  digest_from_hex throws support::Error on
/// malformed input.
[[nodiscard]] std::string digest_to_hex(std::uint64_t digest);
[[nodiscard]] std::uint64_t digest_from_hex(const std::string& text);

// --- emission / parsing -----------------------------------------------------

/// Serialises to the versioned JSON schema (docs/FORMAT.md).
[[nodiscard]] std::string to_json(const Witness& w);

/// Parses and validates a JSON witness document.  Throws support::Error on
/// malformed JSON, schema violations or an unsupported version.
[[nodiscard]] Witness from_json(std::string_view text);

/// File convenience wrappers (throw support::Error on I/O failure).
void save(const Witness& w, const std::string& path);
[[nodiscard]] Witness load(const std::string& path);

// --- replay -----------------------------------------------------------------

struct ReplayResult {
  bool ok = false;
  std::string error;  ///< first divergence, with its step index
  std::size_t steps_applied = 0;
  /// The configuration replay ended in (the violating configuration when
  /// ok); callers re-evaluate their property here for a full cross-check.
  std::optional<lang::Config> final_config;
};

/// Re-executes the witness through the real semantics: starting from
/// initial_config(sys), every step must be an enabled transition of the
/// recorded thread whose successor has the recorded canonical digest.
/// Succeeds iff the complete run exists and lands on the witness's final
/// digest; the initial digest must match too (a witness replayed against
/// the wrong program or semantics options fails immediately).
[[nodiscard]] ReplayResult replay(const lang::System& sys, const Witness& w);

// --- minimization -----------------------------------------------------------

/// Returns a witness for the same violating state with a minimal step
/// sequence (never longer than the input): a BFS shortest path through the
/// witness's touched states, first under local-step fusion — expand only
/// the first thread whose next instruction is local (sound: local steps
/// commute and cannot be disabled) — and without fusion when the fused
/// graph cannot reach the target inside the touched set.  The input must
/// replay cleanly; otherwise it is returned unchanged.  The result replays
/// cleanly by construction (the search runs on the real semantics).
[[nodiscard]] Witness minimize(const lang::System& sys, const Witness& w);

}  // namespace rc11::witness
