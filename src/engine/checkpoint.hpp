// rc11lib/engine/checkpoint.hpp
//
// Checkpoint/resume for the reachability engine: when a run stops early —
// budget exhausted, SIGINT, injected fault — the trace sink already holds
// everything needed to continue later: every interned state's canonical
// encoding, its parent link (thread + label of the step that first reached
// it), and whether the driver enqueued it for expansion.  make_checkpoint
// serialises that to a versioned JSON document, which the driver writes to
// RunControl::checkpoint_path; RunControl::resume seeds a fresh run from
// it.  The same parent links are the front ends' counterexamples:
// recorded_run turns the path to one state into a witness.
//
// Resume semantics (the "re-expansion" design): the resumed run seeds its
// visited set with *all* checkpointed states and its frontier with all
// *enqueued* ones, then runs normally.  Every enqueued state is therefore
// expanded (and handed to the visitor) exactly once across the resumed run —
// including states the interrupted run had already expanded.  That makes
// resume checker-agnostic and verdict-exact: the resumed run's visitor
// observes exactly the state set of an uninterrupted run, so verdicts,
// states, transitions, finals and blocked counts all match an uninterrupted
// run bit for bit.  The price is re-expanding the prefix the first run paid
// for; what is *not* lost is the deduplication work (the visited set) and
// the trace forest.  Stats that describe the *search* rather than the state
// space — peak_frontier, por_chained, visited_bytes — may legitimately
// differ from an uninterrupted run (e.g. chain-internal states interned
// before the stop are not re-collapsed).
//
// Configurations cannot be decoded from their canonical encodings (encoding
// is deliberately one-way — it quotients timestamps), so restore_states
// reconstructs each Config by *re-executing* the recorded step from its
// parent's Config and matching the stored encoding.  A checkpoint is
// therefore self-validating: loaded against the wrong program or semantics
// options, reconstruction fails with a precise error instead of silently
// exploring garbage (a different reduction setting is rejected before that,
// by reduction_conflict).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/budget.hpp"
#include "engine/reach.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/transition_system.hpp"
#include "witness/witness.hpp"

namespace rc11::engine {

/// Checkpoint schema version written to and required from JSON files
/// (versioned like the witness schema; see docs/FORMAT.md).
inline constexpr std::int64_t kCheckpointFormatVersion = 1;

/// A serialisable snapshot of an interrupted reachability run.
struct Checkpoint {
  /// One interned state.  States are ordered parents-strictly-before-
  /// children, so a single forward pass can rebuild the forest.
  struct State {
    std::int64_t parent = -1;     ///< index into states; -1 for the root
    memsem::ThreadId thread = 0;  ///< acting thread of the reaching step
    std::string label;            ///< step label ("init" for the root)
    bool enqueued = true;         ///< false for POR chain-internal states
    std::vector<std::uint64_t> encoding;  ///< canonical encoding words
  };

  std::int64_t version = kCheckpointFormatVersion;
  /// The run's reductions: they decide the enqueued set, so resume must
  /// match (reduction_conflict).  Only `por`, `symmetry` and `rf_quotient`
  /// are stored — a sampling run is never checkpointed.  Files without
  /// `symmetry` or `rf_quotient` predate those reductions and load with
  /// them off.
  Reduction reduction;
  StopReason stop = StopReason::Complete;  ///< why the run stopped
  ExploreStats stats;  ///< partial stats at the stop (see kStatCounters)
  std::vector<State> states;
};

/// Builds a checkpoint from a run's trace sink (call after workers joined).
/// The sink must have been used exclusively via insert_traced and contain
/// exactly one root.
[[nodiscard]] Checkpoint make_checkpoint(const ShardedVisitedSet& sink,
                                         const ExploreStats& stats,
                                         StopReason stop,
                                         const Reduction& reduction);

/// The recorded run from the sink's root to state `id`, as counterexample
/// evidence: appends "init" and each step's label to `labels`, and one
/// witness::WitnessStep per step (acting thread, label, digest of the
/// reached state) to `w.steps`; sets `w.initial_digest` to the digest of
/// the root.  Safe mid-run from any worker, like
/// ShardedVisitedSet::path_to.
void recorded_run(const ShardedVisitedSet& sink, std::uint64_t id,
                  std::vector<std::string>& labels, witness::Witness& w);

/// Serialises to / parses from the versioned JSON schema (docs/FORMAT.md
/// §Checkpoint files).  from_json throws support::Error on malformed input,
/// schema violations or an unsupported version.
[[nodiscard]] std::string to_json(const Checkpoint& ckpt);
[[nodiscard]] Checkpoint from_json(std::string_view text);

/// File convenience wrappers (throw support::Error on I/O failure).
void save_checkpoint(const Checkpoint& ckpt, const std::string& path);
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

/// Reconstructs the Config of every checkpointed state, aligned with
/// Checkpoint::states, by re-executing each recorded step from its parent's
/// Config and matching the stored canonical encoding.  Throws
/// support::Error when the checkpoint does not fit `ts` (wrong program,
/// semantics options, or a tampered file).
[[nodiscard]] std::vector<Config> restore_states(const TransitionSystem& ts,
                                                 const Checkpoint& ckpt);

}  // namespace rc11::engine
