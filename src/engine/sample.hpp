// rc11lib/engine/sample.hpp
//
// The exploration strategy next to exhaustive search (with or without
// ample-set POR): feedback-guided randomized *sampling* of whole schedules,
// in the C11Tester style.  Instead of enumerating the reachable state space,
// the sampling driver runs `episodes` complete executions of the semantics; at
// every configuration it draws the next thread from a seeded weighted RNG
// (and, because lang::successors enumerates memory nondeterminism as
// separate steps, a second draw *within* the chosen thread's steps picks
// the reads-from / placement / CAS option), then moves on.  Guided biasing
// down-weights (thread, pc) sites proportionally to how often they have
// already been executed, so rarely-taken branches — and threads stuck
// behind a spin loop that keeps winning the draw — get revisited instead of
// resampled; the within-thread draw is rarity-weighted the same way, keyed
// (thread, pc, choice index), so episodes drift towards the stale reads
// that distinguish weak behaviours instead of re-reading the latest write.
// With guided off both draws are uniform.
//
// Exhaustive exploration stays the oracle: on instances small enough to
// enumerate, sampling with enough episodes visits a subset of the exhaustive
// state set and agrees on every violation it finds.  Beyond exhaustive
// reach (~10^6-10^7 states), sampling is the only mode that still produces
// verdicts — always honest ones: a sampling run that finds no violation
// ends with StopReason::EpisodeCap, i.e. "results are a lower bound", never
// with a completeness claim.
//
// Composition with the existing subsystems (see engine/reach.hpp for the
// driver contract):
//   * budgets     — Budget::max_states caps *distinct* states (the coverage
//                   estimate), deadlines and memory caps are probed during
//                   episodes, and the episode count itself is the new
//                   EpisodeCap stop reason;
//   * witnesses   — with a trace sink every sampled step is interned via
//                   resolve_traced, so a violating episode is a replayable
//                   witness exactly like an exhaustive one;
//   * checkpoints — there is no meaningful frontier to checkpoint (the
//                   coverage set plus the RNG/bias state is not a resumable
//                   work list), so resume and checkpoint requests are
//                   *rejected loudly* under sampling (reduction_conflict)
//                   instead of silently producing a wrong continuation.
//
// Episodes run sequentially regardless of RunControl::num_threads: the
// guided bias makes episode e depend on every episode before it, so a
// parallel schedule would break seed determinism — and same seed ==> same
// run, byte for byte, is the property CI enforces.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rc11::engine {

/// How the reachability driver covers the state space.  Exhaustive
/// enumerates every reachable state (over the ample-reduced relation when
/// ReachOptions::por is set); Sample draws random schedules instead and
/// covers a subset.
enum class Strategy : std::uint8_t {
  Exhaustive,  ///< full enumeration (the historic default)
  Sample,      ///< seeded weighted random schedules (episodes)
};

/// Stable lower-case names ("exhaustive", "sample") for reports and JSON
/// summaries.
[[nodiscard]] const char* to_string(Strategy strategy) noexcept;

/// Tuning knobs for Strategy::Sample.
struct SampleOptions {
  /// Schedules to run end-to-end.  The CLI spelling `--strategy sample:N`
  /// sets this; a sampling run that exhausts it stops with
  /// StopReason::EpisodeCap (sampling never claims completeness).
  std::uint64_t episodes = 4096;
  /// RNG seed.  Same program + same options + same seed reproduces the run
  /// exactly — schedules, coverage, verdicts and stats.
  std::uint64_t seed = 0;
  /// Feedback-guided biasing: down-weight (thread, pc) sites — and, within
  /// the drawn thread, (thread, pc, choice index) memory-nondeterminism
  /// alternatives — by how often they have already executed, across and
  /// within episodes.  Off = both draws are uniform.
  bool guided = true;
  /// Per-episode schedule-length cap, the spin-loop safety valve: an
  /// episode that has not reached a final or blocked configuration after
  /// this many steps is abandoned (it still counts as an episode; its
  /// states stay in the coverage set).  0 = the built-in default.
  std::uint64_t max_episode_steps = 0;
};

/// Default for SampleOptions::max_episode_steps == 0.  Generous against the
/// corpus (complete schedules there run tens to hundreds of steps) while
/// still bounding a pathological all-spin schedule.
inline constexpr std::uint64_t kDefaultEpisodeStepCap = 20'000;

/// The reduction and coverage settings of one run, declared once.  Every
/// options struct that offers them derives from this one — ReachOptions,
/// the front ends' options, the refinement options and cli::CommonOptions —
/// so each copy between layers is one slice assignment, and a Checkpoint
/// records one.  reduction_conflict states every rule about combining the
/// settings; the driver applies it to every run.  Sleep-set pruning is not
/// a setting: the driver runs it exactly when a quotient (symmetry or
/// rf_quotient) is on, since both already pay for the masked visited set.
/// A new reduction needs one field here plus its rules in
/// reduction_conflict.
struct Reduction {
  /// How to cover the state space: exhaustive enumeration (default) or
  /// seeded random sampling.  Under Strategy::Sample the driver runs
  /// sample_reach: episodes are sequential regardless of the worker count
  /// (seed determinism), and the search order is ignored.
  Strategy mode = Strategy::Exhaustive;
  /// Tuning for Strategy::Sample (ignored otherwise).
  SampleOptions sample;
  /// Ample-set partial-order reduction (engine/transition_system.hpp):
  /// expand only the ample thread when its next step is local, and collapse
  /// deterministic local chains (engine/reach.hpp).
  bool por = false;
  /// Thread-symmetry quotient (engine/symmetry.hpp): deduplicate states by
  /// a canonical representative of their thread-permutation orbit,
  /// shrinking the visited set by up to |G| for systems whose threads run
  /// identical program text.  A sound no-op when the system has no
  /// interchangeable threads.  Callers that consume per-state results
  /// (finals, invariants, obligations) must orbit-close them — the driver
  /// visits one representative per orbit.
  bool symmetry = false;
  /// Execution-graph quotient (engine/abstraction.hpp, RfQuotient):
  /// deduplicate states by [pcs, registers, rf/mo projection], folding
  /// interleavings that built the same execution graph and differ only in
  /// dead view history.  Exact for finals, verdicts over the pinned view
  /// footprints (ReachOptions::rf_pins) and race sets — see DESIGN.md's
  /// StateAbstraction section.
  ///
  /// All three reductions compose with each other (except symmetry with
  /// rf_quotient), with budgets, any worker count, trace sinks (witnesses
  /// record concrete states along really-taken paths) and checkpoint/resume.
  bool rf_quotient = false;
};

/// Every rule about a Reduction, one message per rule, each naming the
/// flags it involves:
///   * --symmetry with --rf-quotient (sleep masks cannot be transported
///     through two quotients at once);
///   * --strategy sample with any reduction, and with --checkpoint or
///     --resume (a sampling run keeps no frontier);
///   * --rf-quotient under the SC model;
///   * a resumed checkpoint recorded under different reductions: they
///     decide which states were interned and enqueued (the worker count and
///     search order never do, so those may change).
/// `checkpoint`: the run saves a checkpoint when it stops early.  `resume`:
/// it continues one, whose recorded setting is `recorded` — null before the
/// file is loaded, as when the tools check their flags.  `sc`: the system
/// runs under memsem::MemoryModel::SC.  Returns the first violated rule's
/// message, or an empty string when the run may go ahead.
[[nodiscard]] std::string reduction_conflict(const Reduction& r,
                                             bool checkpoint = false,
                                             bool resume = false,
                                             const Reduction* recorded = nullptr,
                                             bool sc = false);

/// Parses a --strategy value: "exhaustive", "por", "sample" or "sample:N"
/// (N = episode count, whole positive number) into `out`.  "por" is
/// exhaustive enumeration with ample-set POR: it sets `mode` to Exhaustive
/// and `por` to true.  Returns false on anything else; `out` is only
/// written on success (`sample.episodes` only by the sample forms, `por`
/// only by "por").
[[nodiscard]] bool parse_strategy(std::string_view text, Reduction& out);

}  // namespace rc11::engine
