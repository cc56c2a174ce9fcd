// rc11lib/refinement/refinement.hpp
//
// Contextual refinement for weak-memory libraries (Section 6).
//
// Definition 5 (state refinement) compares *client projections*: the client
// registers, the client variables' operation histories and covered set, and
// per-thread observability — a concrete state refines an abstract state when
// the local client states agree, the client covered sets agree, and every
// thread's concrete observable-write set is a subset of its abstract one
// (γ_C.Obs(t, x) ⊆ γ_A.Obs(t, x)).  Operationally we require the client
// operation histories to be *equal* (the simulation game makes the abstract
// client mirror concrete client steps one-for-one, which is how the paper's
// simulations are constructed too) and Obs inclusion then reduces to a
// pointwise viewfront-rank comparison.
//
// Definition 8 (forward simulation for synchronisation-free clients) is
// decided as a simulation *game* on the product of the two finite state
// graphs: candidate pairs are those satisfying the client-observation clause;
// the greatest fixpoint removes every pair with a concrete step that can be
// matched neither by an abstract stutter nor by a single abstract step.  The
// simulation exists iff the initial pair survives (Theorem 8.1 then gives
// C[AO] ⊑ C[CO]).
//
// A bounded trace-inclusion checker for Definitions 6/7 (stutter-free client
// traces) doubles as an independent oracle on small instances.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/budget.hpp"
#include "engine/sample.hpp"
#include "lang/config.hpp"
#include "witness/witness.hpp"

namespace rc11::refinement {

using lang::Config;
using lang::System;
using lang::ThreadId;

/// The Definition 5 client projection of a configuration.
struct ClientProjection {
  /// Exact-match part: client registers and the full client-variable
  /// operation histories including covered flags (equal histories ⇒ equal
  /// cvd, which Def. 5 requires).
  std::vector<std::uint64_t> exact;
  /// Inclusion part: per (thread, client variable) viewfront ranks; the
  /// concrete entry must be >= the abstract entry (higher viewfront = fewer
  /// observable writes).
  std::vector<std::uint32_t> view_ranks;

  friend bool operator==(const ClientProjection&, const ClientProjection&) = default;
};

/// Extracts the client projection (client-tagged registers and locations
/// only; library state and pcs are invisible to the client).
[[nodiscard]] ClientProjection project_client(const System& sys, const Config& cfg);

/// Definition 5: does `conc` refine `abs`?
[[nodiscard]] bool client_refines(const ClientProjection& abs,
                                  const ClientProjection& conc);

/// An explicit reachable-state graph of a system.
struct StateGraph {
  std::vector<Config> states;
  std::vector<std::vector<std::uint32_t>> succ;  ///< adjacency (state indices)
  /// Per-edge human-readable step labels, parallel to `succ` (only when the
  /// graph was built with want_labels; empty otherwise).
  std::vector<std::vector<std::string>> labels;
  /// Per-edge acting thread, parallel to `succ` (want_labels builds only);
  /// lets counterexample runs over this graph become replayable witnesses.
  std::vector<std::vector<ThreadId>> threads;
  std::uint32_t initial = 0;
  /// Why the build's exploration ended; anything but Complete means the
  /// graph is missing states and downstream verdicts are unreliable.
  engine::StopReason stop = engine::StopReason::Complete;

  [[nodiscard]] std::size_t num_states() const { return states.size(); }
  [[nodiscard]] std::size_t num_edges() const {
    std::size_t n = 0;
    for (const auto& e : succ) n += e.size();
    return n;
  }
};

/// Builds the full reachable graph (up to max_states).  With want_labels,
/// edges carry step descriptions (costs time and memory; used for
/// counterexample reporting and DOT export).
///
/// num_threads follows the explore::ExploreOptions convention (1 one worker,
/// 0 hardware concurrency).  The build runs in two phases for every thread
/// count — collect all reachable states through the shared reachability
/// driver, then resolve every state's successor edges against the index —
/// and numbers states by canonical encoding, so the resulting graph is
/// *identical for every thread count*.
///
/// With `por`, both phases use the ClientInvisible ample policy of
/// engine::TransitionSystem: states are collected over the reduced relation
/// and every edge is a real single step of that same relation (no chain
/// collapse — graph consumers need single-step edges), so counterexample
/// runs over a reduced graph still replay through the full semantics.
/// Reduced here means only projection-invisible steps are ever pruned, which
/// preserves the stutter-closed projection traces the refinement checkers
/// compare (docs/SEMANTICS.md §9).
///
/// Refinement honours a subset of engine::Reduction, stated once here.  No
/// entry point accepts `rf_quotient`: the checkers compare client
/// projections across two systems, and the execution-graph quotient's keys
/// are only comparable within one.  build_graph and the simulation reject
/// `symmetry`: a graph's states and edges must be concrete, and quotienting
/// the simulation fixpoint would change which pairs its diagnosis can cite.
/// TraceInclusionOptions::symmetry quotients the product instead.
///
/// Under Strategy::Sample (`mode`, tuned by `sample`) phase 1 collects the
/// states seeded random episodes cross and phase 2 resolves edges within
/// that subset (edges to uncollected states are dropped — the same rule
/// every truncated build already follows).  Every state and edge of a
/// sampled graph is real; the graph is marked truncated
/// (StopReason::EpisodeCap) because it may be missing states.
struct GraphOptions : engine::Reduction {
  std::uint64_t max_states = 1'000'000;
  bool want_labels = false;
  unsigned num_threads = 1;
  /// Resource governance (same semantics as explore::ExploreOptions):
  /// exceeding a budget stops the build with the matching StateGraph::stop.
  /// Checkpoint/resume is not offered for graph builds — refinement checks
  /// build two graphs per run, so a single checkpoint file is ambiguous.
  std::uint64_t max_visited_bytes = 0;  ///< bytes; 0 = unlimited
  std::uint64_t deadline_ms = 0;        ///< wall clock; 0 = none
  const engine::CancelToken* cancel = nullptr;
  engine::FaultPlan fault;
};

[[nodiscard]] StateGraph build_graph(const System& sys,
                                     const GraphOptions& options = {});

/// The simulation check's options.  Of the engine::Reduction base it takes
/// `por` — both state graphs are built with client-invisible ample-set POR
/// (see build_graph); verdicts agree with the unreduced check on the
/// PorCrosscheck corpus — and `mode`/`sample`: under Strategy::Sample only
/// the *concrete* graph is sampled, since the abstract graph is the
/// specification and must be complete for the game to be meaningful.  The
/// simulation fixpoint needs the full concrete edge relation (missing edges
/// would make pairs survive vacuously), so a sampled simulation check
/// always reports truncated with a diagnosis; use check_trace_inclusion for
/// definite sampled verdicts.  `symmetry` and `rf_quotient` are rejected
/// (see GraphOptions).
struct SimulationOptions : engine::Reduction {
  std::uint64_t max_states = 1'000'000;  ///< per system
  /// Workers for graph construction and client projection (the fixpoint
  /// itself stays sequential); same convention as ExploreOptions.
  unsigned num_threads = 1;
  /// Resource governance, applied to *each* graph build separately (a
  /// deadline therefore bounds each phase, not the whole check); the
  /// cancellation token is shared, so one Ctrl-C stops whichever phase is
  /// running.
  std::uint64_t max_visited_bytes = 0;  ///< bytes per graph; 0 = unlimited
  std::uint64_t deadline_ms = 0;        ///< wall clock per graph; 0 = none
  const engine::CancelToken* cancel = nullptr;
  engine::FaultPlan fault;
};

struct SimulationResult {
  bool holds = false;
  bool truncated = false;  ///< a graph hit its bound: outcome unreliable
  std::uint64_t abstract_states = 0;
  std::uint64_t concrete_states = 0;
  std::uint64_t candidate_pairs = 0;
  std::uint64_t surviving_pairs = 0;
  std::uint64_t refinement_iterations = 0;
  std::string diagnosis;  ///< human-readable failure hint
  /// On failure: step labels of a shortest concrete run into a state no
  /// abstract state can be paired with (empty if the failure is only due to
  /// cyclic matching constraints rather than a dead state).
  std::vector<std::string> counterexample;
  /// Structured form of `counterexample`: a replayable run of the *concrete*
  /// system into the diverging state (validate with witness::replay against
  /// concrete_sys).  Present iff counterexample is non-empty.
  std::optional<witness::Witness> witness;

  /// The fixpoint ran and the initial pair did not survive: a definite
  /// failure.  A truncated check never runs the fixpoint, so holds == false
  /// there only means "not established".
  [[nodiscard]] bool refuted() const { return !holds && !truncated; }
};

/// Decides whether a Definition 8 forward simulation exists between
/// `abstract_sys` (the client using AO) and `concrete_sys` (the same client
/// using CO).  `holds == true` establishes C[AO] ⊑ C[CO] for this client
/// (Theorem 8.1).
[[nodiscard]] SimulationResult check_forward_simulation(
    const System& abstract_sys, const System& concrete_sys,
    const SimulationOptions& options = {});

/// The trace-inclusion check's options.  Of the engine::Reduction base it
/// takes `por` (as SimulationOptions), `mode`/`sample` and `symmetry`, and
/// rejects `rf_quotient` (see GraphOptions):
///   * mode == Strategy::Sample — only the *concrete* graph is sampled (the
///     abstract side is the specification and stays complete) and the game
///     runs over the covered concrete subgraph: every sampled concrete run
///     is a real execution, so a refinement violation found this way is
///     *definite* — holds == false with a replayable witness — while "no
///     violation" stays inconclusive (truncated == true, a lower bound).
///   * symmetry — a thread-symmetry quotient of the *product* construction:
///     when both systems have identical interchangeable-thread classes
///     (engine::SymmetryReducer), product nodes (concrete state, abstract
///     match set) are deduplicated modulo simultaneous thread permutation of
///     both sides.  Client projections permute covariantly, so refinement of
///     a node and of its permuted image coincide and an empty match set is
///     reachable in the quotient iff it is in the full product — verdicts
///     and witnesses are unchanged, only product_nodes shrinks (arena nodes
///     stay concrete, so counterexample runs replay as before).  A sound
///     no-op when either system has no interchangeable threads or the
///     classes differ.  Composes with `por` under the same
///     corpus-crosschecked caveat as por itself; rejected under sampling,
///     like every reduction (the permuted image of a sampled state need not
///     be covered).
struct TraceInclusionOptions : engine::Reduction {
  std::uint64_t max_states = 200'000;       ///< per state graph
  std::uint64_t max_product_nodes = 500'000;  ///< subset-construction bound
  /// Workers for graph construction and client projection (the subset
  /// construction stays sequential); same convention as ExploreOptions.
  unsigned num_threads = 1;
  /// Resource governance for the graph builds (per build; see
  /// SimulationOptions for the sharing semantics).
  std::uint64_t max_visited_bytes = 0;  ///< bytes per graph; 0 = unlimited
  std::uint64_t deadline_ms = 0;        ///< wall clock per graph; 0 = none
  const engine::CancelToken* cancel = nullptr;
  engine::FaultPlan fault;
};

struct TraceInclusionResult {
  bool holds = false;
  bool truncated = false;
  /// The game ran: both graphs were complete, or the concrete one was a
  /// sample.  False when a graph build stopped early (holds is false then).
  bool played = false;
  std::uint64_t product_nodes = 0;  ///< (concrete state, abstract set) nodes
  std::string what;  ///< description of an unmatchable concrete step
  /// Replayable concrete run ending in the unmatchable step (validate with
  /// witness::replay against concrete_sys).  Present iff holds is false and
  /// the game reached a genuinely unmatchable step (not on truncation).
  std::optional<witness::Witness> witness;

  /// The game reached a concrete step no abstract run matches: a definite
  /// violation, also over a sampled concrete graph.
  [[nodiscard]] bool refuted() const { return played && !holds; }
};

/// Definitions 6/7 as a trace-inclusion game, decided by subset construction:
/// for every concrete run there must exist an abstract run that pointwise
/// refines it (Def. 5's ⊑ per state, with the abstract side free to stutter).
/// Tracks, for each concrete trace prefix, the set of abstract states that
/// can match it; a reachable empty set is a refinement violation and its
/// step is reported as the witness.  This is the direct (game) form of
/// Definition 6; check_forward_simulation is the paper's sufficient
/// condition (Def. 8 / Thm. 8.1) and implies it.
[[nodiscard]] TraceInclusionResult check_trace_inclusion(
    const System& abstract_sys, const System& concrete_sys,
    const TraceInclusionOptions& options = {});

}  // namespace rc11::refinement
