// rc11lib/engine/reach.hpp
//
// The generic reachability driver all four checkers run on: enumerate every
// configuration reachable in a TransitionSystem exactly once and hand each
// one, together with its enabled steps, to a visitor.  explore::explore,
// og::check_outline / check_triple and refinement::build_graph are all thin
// visitors over this driver; none of them generates successors itself.
//
// There is one driver loop: a pool of workers over a shared frontier and a
// lock-striped visited set.  `num_threads == 1` is the pool with one worker
// on the calling thread and a one-shard set; that worker takes one frontier
// item per turn (LIFO, FIFO under BFS), so a single-thread run expands in
// exact DFS (BFS) order and its statistics are deterministic.  Larger pools
// take batches and may interleave differently; they visit the same states.
//
// States are deduplicated by their canonical encoding (order-isomorphic
// timestamp quotient — see memsem::SemanticsOptions::canonical_timestamps),
// which is what keeps litmus-style programs finite-state — or, under a state
// abstraction (symmetry, rf quotient), by the abstraction's key.  The
// identity abstraction is the plain path.
//
// Partial-order reduction (ReachOptions::por): when the transition system
// reports an ample thread for a configuration, only that thread's steps are
// expanded.  On top of that, when the transition system allows it
// (TransitionSystem::collapse_chains), successors whose ample thread sits at
// a *local* instruction are fast-forwarded through that deterministic chain
// and only the chain's stable end is visited — this is where the bulk of
// the visited-state reduction comes from.  The reduced state graph is a
// deterministic function of the system (see TransitionSystem::ample_thread),
// so POR composes with any worker count, search strategy and trace sink;
// every recorded trace edge — including chain-internal ones, which are
// interned in the sink without being visited — is a real single transition
// of the full semantics, so recorded traces replay unchanged
// (witness::replay).  Reduced and full runs visit the same final and blocked
// states; docs/SEMANTICS.md §9 gives the soundness argument.
//
// Sleep-set pruning (Godefroid) runs exactly when a quotient (symmetry or
// rf_quotient) is on — both already pay for the masked visited set it needs.
// Each frontier entry carries the set of threads whose steps are provably
// covered by a commuted exploration order; their successor steps are
// skipped.  It prunes *transitions* only — every reachable state is still
// visited, so finals, blocked states, invariants and graph builders are
// exact.  Off when the system has more than 64 threads and under sampling.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "engine/abstraction.hpp"
#include "engine/budget.hpp"
#include "engine/sample.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/transition_system.hpp"

namespace rc11::engine {

struct Checkpoint;  // engine/checkpoint.hpp

using lang::Step;

/// Search order.  Both visit the same set of states (the visited set makes
/// exploration order-insensitive); BFS yields shortest counterexample
/// traces, DFS has the smaller frontier on deep graphs.
enum class SearchStrategy : std::uint8_t { Dfs, Bfs };

struct ExploreStats {
  std::uint64_t states = 0;       ///< distinct states visited
  std::uint64_t transitions = 0;  ///< transitions generated
  std::uint64_t finals = 0;       ///< states with every thread terminated
  std::uint64_t blocked = 0;      ///< non-final states with no transition
  std::uint64_t peak_frontier = 0;  ///< largest unexpanded-state backlog
  /// Heap footprint of the visited set at the end of the run (interned
  /// arena + fingerprint tables); divide by `states` for bytes/state.
  std::uint64_t visited_bytes = 0;
  /// States expanded with a reduced (ample) step set instead of the full
  /// successor relation.  Non-zero only under ReachOptions::por; the states
  /// and edges *saved* by the reduction are the difference against a full
  /// run (pinned by Por.ReductionHeadlineOnTargetFamilies; reported by the
  /// tools' --stats).
  std::uint64_t por_reduced = 0;
  /// Deterministic local steps fast-forwarded by chain collapse — each one a
  /// state that exists in the full graph but was never visited here.
  /// Non-zero only under por with a chain-collapsing transition system.
  std::uint64_t por_chained = 0;
  /// Episodes completed under Strategy::Sample (0 otherwise).  Under
  /// sampling, `states` is the *coverage estimate* — distinct states the
  /// episodes crossed — and `transitions` counts enabled steps enumerated at
  /// first visits, matching the exhaustive meaning on the covered subgraph.
  std::uint64_t episodes = 0;
  /// Arrivals folded into an already-visited canonical state via a
  /// non-identity permutation (ReachOptions::symmetry).  A lower bound on
  /// the states the quotient saved: each hit is a concrete state a
  /// non-symmetric run would have visited separately.
  std::uint64_t symmetry_hits = 0;
  /// Successor steps skipped because their acting thread was asleep (sleep
  /// sets run under either quotient) — transitions pruned, never states:
  /// every reachable state is still visited exactly once.
  std::uint64_t sleep_set_skips = 0;
  /// Concrete states folded into an already-visited execution-graph class
  /// (ReachOptions::rf_quotient): arrivals whose concrete encoding was new
  /// but whose quotient key was not.  A lower bound on the states the
  /// quotient saved.  Counted only when a trace sink is attached (the sink
  /// is what distinguishes a genuinely new concrete state from a concrete
  /// re-arrival); untraced runs report 0 and Rf.StoreFanReducedAndExact
  /// compares visited state counts instead.
  std::uint64_t rf_merges = 0;
};

/// The settings of one run, declared once: its reductions (the Reduction
/// base: `mode`, `sample`, `por`, `symmetry`, `rf_quotient`), its limits
/// (the Budget base: `max_states`, `max_visited_bytes`, `deadline_ms`) and
/// the controls below.  Every options struct that runs the driver derives
/// from it — ReachOptions, the front ends' options, the refinement options
/// and cli::CommonOptions — so each hand-over between layers is one slice
/// assignment.  ReachResult::stop names whichever limit ended a run.
struct RunControl : Reduction, Budget {
  /// Worker threads expanding configurations: 1 (the default) is the
  /// driver's pool with one worker on the calling thread, which expands in
  /// exact DFS (BFS) order — required for BFS shortest-trace guarantees and
  /// for deterministic statistics; 0 resolves to
  /// std::thread::hardware_concurrency(); N > 1 runs N workers over a
  /// lock-striped visited set (engine/sharded_visited.hpp).  For every
  /// thread count the *set* of visited states, final configurations and
  /// verdicts is identical; only per-run orderings — which violation is
  /// reported first, which states fall inside a max_states truncation —
  /// may differ.  Recorded traces compose with every thread count: parent
  /// links are recorded per interned state under the shard lock, so a
  /// multi-worker run's trace may differ from a one-worker run's but is
  /// always a real execution (and always replays — see witness::replay).
  unsigned num_threads = 1;
  /// Cooperative cancellation: when set, workers poll the token once per
  /// claimed state and the run stops with StopReason::Interrupted once it
  /// fires.  The token outlives the call; null disables the check.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault injection for robustness tests (see
  /// engine::FaultPlan); unarmed by default.
  FaultPlan fault;
  /// Resume a previous run from a checkpoint: the driver seeds its visited
  /// set with every checkpointed state and its frontier with every enqueued
  /// one, then explores normally — the visitor observes exactly the state
  /// set of an uninterrupted run, so verdicts, states, transitions, finals
  /// and blocked counts equal an uninterrupted run's (see
  /// engine/checkpoint.hpp for the argument).  `por`, `symmetry` and
  /// `rf_quotient` must match the checkpoint's, the trace sink (if any)
  /// must be empty, and the checkpoint must fit the transition system
  /// (validated by re-execution; support::Error otherwise).  Must outlive
  /// the call.
  const Checkpoint* resume = nullptr;
  /// When non-empty and the run stops early (any StopReason other than
  /// Complete), the driver writes a checkpoint of its trace sink to this
  /// file.  A checkpointed run therefore needs a trace sink: the front ends
  /// attach one whenever this is set, so their failures carry witnesses as
  /// under track_traces.  Rejected under sampling (a sampling run keeps no
  /// frontier).
  std::string checkpoint_path;
};

/// The driver's options: the run's settings (RunControl) plus what only the
/// driver reads.  visit_reachable checks the reductions with
/// reduction_conflict before any work.
struct ReachOptions : RunControl {
  SearchStrategy strategy = SearchStrategy::Dfs;
  bool want_labels = false;  ///< fill Step::label for the visitor
  /// Extra (thread, location) viewfront entries the rf-quotient key keeps
  /// beyond what liveness analysis retains — the view footprints of the
  /// assertions the caller evaluates per state.  Ignored unless rf_quotient.
  RfPins rf_pins;
  /// Not read: the driver runs sleep-set pruning exactly when `symmetry ||
  /// rf_quotient`.  Declared only because perfbench/layers.cpp assigns it
  /// (with that same value); it goes with that mirror (ROADMAP item 6).
  bool sleep_sets = false;
  /// Caller-owned trace sink.  When set, the driver uses it as the visited
  /// set: every state is interned via insert_traced (recording parent id,
  /// acting thread and step label under the shard lock), labels are forced
  /// on, and the visitor receives each state's id so it can reconstruct the
  /// run to any state of interest with engine::recorded_run — safely mid-run,
  /// from any worker.  Must be empty (freshly constructed) and must outlive
  /// the call; required when checkpoint_path is set.  When null, ids passed
  /// to the visitor are ShardedVisitedSet::kNoState and the driver owns its
  /// visited set.
  ShardedVisitedSet* trace = nullptr;
};

/// Called exactly once per reachable configuration with its enabled steps
/// (empty for final/blocked states).  `state_id` identifies the
/// configuration in ReachOptions::trace (kNoState when no trace sink is
/// set).  Return false to request a cooperative stop: in-flight workers
/// finish their current state and no further states are claimed.  Must be
/// thread-safe when num_threads resolves to > 1 (the driver still needs the
/// successor configurations after the call, hence the const view).  The span
/// points into a per-worker pooled StepBuffer and is only valid for the
/// duration of the call.
using StateVisitor = std::function<bool(const Config&, std::uint64_t state_id,
                                        std::span<const Step>)>;

struct ReachResult {
  ExploreStats stats;
  /// Why the run ended.  Complete covers full enumeration *and* a visitor
  /// veto (stopping was the visitor's decision, not resource exhaustion);
  /// every other value means the enumeration is partial.
  StopReason stop = StopReason::Complete;
};

/// The driver's per-state expansion policy — POR ample set or full successor
/// relation — exposed so graph builders that must mirror the reduced edge
/// relation (refinement::build_graph phase 2, and refinement::edge_label
/// when it regenerates one edge's label) expand exactly like the driver.
/// Returns true iff a reduced (ample) set was produced.
bool expand_steps(const TransitionSystem& ts, const Config& cfg,
                  const ReachOptions& options, StepBuffer& out,
                  bool want_labels);

/// Enumerates reachable configurations under `options`, invoking `visitor`
/// once per configuration.  Deduplication uses canonical encodings with
/// full-encoding confirmation (collision-sound), lock-striped across shards
/// when more than one worker runs.
[[nodiscard]] ReachResult visit_reachable(const TransitionSystem& ts,
                                          const ReachOptions& options,
                                          const StateVisitor& visitor);

/// Convenience overload over the standard TransitionSystem (FinalState
/// ample policy — what the explorer and the outline checker use).
[[nodiscard]] ReachResult visit_reachable(const System& sys,
                                          const ReachOptions& options,
                                          const StateVisitor& visitor);

/// The Strategy::Sample driver (engine/sample.cpp): runs
/// options.sample.episodes seeded random schedules end-to-end, invoking the
/// visitor once per *newly covered* configuration — so visitors written for
/// exhaustive runs (violation scanners, graph collectors) work unchanged on
/// the sampled subgraph.  visit_reachable dispatches here; call it directly
/// only from tests.
[[nodiscard]] ReachResult sample_reach(const TransitionSystem& ts,
                                       const ReachOptions& options,
                                       const StateVisitor& visitor);

}  // namespace rc11::engine
