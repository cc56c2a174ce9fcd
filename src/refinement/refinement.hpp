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
//
// Both games read the same inputs, so they share them: build_graph_pair
// builds the abstract and the concrete graph once, projects every state
// once and stores the compatibility relation; play_forward_simulation and
// play_trace_inclusion then run on that one GraphPair (rc11-refine plays
// both).  check_forward_simulation and check_trace_inclusion are the
// build-then-play compositions for callers that want one game.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/budget.hpp"
#include "engine/reach.hpp"
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
  /// Per-edge position of the step in engine::expand_steps' output for the
  /// source state, parallel to `succ`: edge_label re-expands the source and
  /// takes this step, so a counterexample renders only the labels it cites.
  std::vector<std::vector<std::uint32_t>> step_index;
  /// Per-edge step labels, parallel to `succ`, for DOT export
  /// (explore::to_dot).  Filled only by a want_labels build; empty otherwise.
  std::vector<std::vector<std::string>> labels;
  std::uint32_t initial = 0;
  /// The edges are the client-invisible ample relation (GraphOptions::por);
  /// edge_label expands under the same relation.
  bool por = false;
  /// Why the build's exploration ended; anything but Complete means the
  /// graph is missing states and downstream verdicts are unreliable.
  engine::StopReason stop = engine::StopReason::Complete;
  /// The statistics of the build's reachability pass (states, transitions,
  /// por_reduced, ...), for rc11-refine --stats.
  engine::ExploreStats stats;

  [[nodiscard]] std::size_t num_states() const { return states.size(); }
  [[nodiscard]] std::size_t num_edges() const {
    std::size_t n = 0;
    for (const auto& e : succ) n += e.size();
    return n;
  }
};

/// Builds the full reachable graph (up to max_states).  Every edge records
/// its acting thread and step index; with want_labels it also carries its
/// step description, which only DOT export needs (it costs time and memory:
/// refinement counterexamples regenerate their labels with edge_label).
///
/// num_threads follows the engine::RunControl convention (1 one worker,
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
/// Refinement honours a subset of engine::RunControl, stated once here.  No
/// entry point accepts `rf_quotient`: the checkers compare client
/// projections across two systems, and the execution-graph quotient's keys
/// are only comparable within one.  None accepts `resume` or
/// `checkpoint_path` either: a check builds two graphs, so a single
/// checkpoint file is ambiguous.  build_graph and the simulation reject
/// `symmetry`: a graph's states and edges must be concrete, and quotienting
/// the simulation fixpoint would change which pairs its diagnosis can cite.
/// TraceInclusionOptions::symmetry quotients the product instead.  The
/// limits and controls apply to each build: exceeding a budget stops it
/// with the matching StateGraph::stop.
///
/// Under Strategy::Sample (`mode`, tuned by `sample`) phase 1 collects the
/// states seeded random episodes cross and phase 2 resolves edges within
/// that subset (edges to uncollected states are dropped — the same rule
/// every truncated build already follows).  Every state and edge of a
/// sampled graph is real; the graph is marked truncated
/// (StopReason::EpisodeCap) because it may be missing states.
struct GraphOptions : engine::RunControl {
  bool want_labels = false;  ///< fill StateGraph::labels (DOT export)
};

/// engine::reduction_conflict's rules, then the subset above, as the first
/// violated rule's message (empty when the check may go ahead).
/// `product_symmetry`: the caller spends `symmetry` on the trace-inclusion
/// product.  Every entry point below applies it, and rc11-refine applies it
/// to its flags before it reads any file.
[[nodiscard]] std::string refinement_conflict(const engine::Reduction& r,
                                              bool checkpoint, bool resume,
                                              bool product_symmetry);

[[nodiscard]] StateGraph build_graph(const System& sys,
                                     const GraphOptions& options = {});

/// The step behind edge `edge` of state `state`.
struct EdgeLabel {
  ThreadId thread = 0;
  std::string label;
};

/// Regenerates an edge's label by re-expanding its source state exactly as
/// build_graph did (engine::expand_steps under the graph's `por`) and taking
/// the step at the edge's step_index.  Equals what a want_labels build
/// stores for the same edge.
[[nodiscard]] EdgeLabel edge_label(const System& sys, const StateGraph& graph,
                                   std::uint32_t state, std::uint32_t edge);

/// States put into StateGraphs by build_graph so far in this process, over
/// every build: rc11-refine --stats prints it, so a run that builds a graph
/// twice shows in the count.
[[nodiscard]] std::uint64_t graph_states_built();

/// The simulation check's options.  Of the engine::Reduction base it takes
/// `por` — both state graphs are built with client-invisible ample-set POR (see
/// build_graph); verdicts agree with the unreduced check
/// (Por.RefinementVerdictsAgree) — and `mode`/`sample`: under Strategy::Sample
/// only the *concrete* graph is sampled, since the abstract graph is the
/// specification and must be complete for the game to be meaningful.  The
/// simulation fixpoint needs the full concrete edge relation (missing edges
/// would make pairs survive vacuously), so a sampled simulation check always
/// reports truncated with a diagnosis; use check_trace_inclusion for definite
/// sampled verdicts.  `symmetry` and `rf_quotient` are rejected (see
/// GraphOptions).  The limits apply to *each* graph build separately
/// (`max_states` per system; a deadline bounds each phase, not the whole
/// check); the cancellation token is shared, so one Ctrl-C stops whichever
/// phase is running.  `num_threads` runs graph construction and client
/// projection; the fixpoint itself stays sequential.
struct SimulationOptions : engine::RunControl {};

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
/// The limits, controls and workers apply as in SimulationOptions; the
/// subset construction stays sequential and stops, truncated, at 500,000
/// product nodes.
struct TraceInclusionOptions : engine::RunControl {};

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

/// The two state graphs of one refinement check and the Definition 5
/// compatibility relation between their states: everything both games
/// read.  Built once by build_graph_pair and shared by the simulation and
/// trace inclusion.  Keeps pointers to the two systems, which must outlive
/// it (counterexamples re-expand concrete states and dump them).
struct GraphPair {
  const System* abstract_sys = nullptr;
  const System* concrete_sys = nullptr;
  StateGraph abs;
  StateGraph conc;
  /// Def. 5 compatibility by concrete state, as flat arrays:
  /// compat[compat_begin[c] .. compat_begin[c + 1]) lists, ascending, the
  /// abstract states `a` with client_refines(project(a), project(c)).  Every
  /// state is projected once, while the pair is built.  Filled only when a
  /// game can run: the abstract graph is complete and the concrete one is
  /// complete or a sample (empty otherwise).
  std::vector<std::uint32_t> compat_begin;
  std::vector<std::uint32_t> compat;
};

/// Builds a check's two graphs once, under the rules every check follows:
/// symmetry never reaches a graph build (trace inclusion spends it on the
/// product), only the concrete graph is ever sampled (the abstract graph is
/// the specification, and a sampled spec would manufacture violations),
/// and the reduction, bounds and governance of `options` apply to each
/// build.  The SimulationOptions overload rejects `symmetry`, the
/// TraceInclusionOptions overload accepts it; both reject `rf_quotient`.
[[nodiscard]] GraphPair build_graph_pair(const System& abstract_sys,
                                         const System& concrete_sys,
                                         const SimulationOptions& options);
[[nodiscard]] GraphPair build_graph_pair(const System& abstract_sys,
                                         const System& concrete_sys,
                                         const TraceInclusionOptions& options);

/// Plays the Definition 8 simulation game on a built pair (see
/// check_forward_simulation).  Truncated, with a diagnosis, when either
/// graph is incomplete, a sample included.
[[nodiscard]] SimulationResult play_forward_simulation(const GraphPair& pair);

/// Plays the trace-inclusion game on a built pair (see
/// check_trace_inclusion).  Of `options` it reads only `symmetry`, the
/// product's one setting; the graphs are the pair's.
[[nodiscard]] TraceInclusionResult play_trace_inclusion(
    const GraphPair& pair, const TraceInclusionOptions& options);

/// Decides whether a Definition 8 forward simulation exists between
/// `abstract_sys` (the client using AO) and `concrete_sys` (the same client
/// using CO): build_graph_pair, then play_forward_simulation.
/// `holds == true` establishes C[AO] ⊑ C[CO] for this client (Theorem 8.1).
[[nodiscard]] SimulationResult check_forward_simulation(
    const System& abstract_sys, const System& concrete_sys,
    const SimulationOptions& options = {});

/// Definitions 6/7 as a trace-inclusion game, decided by subset construction:
/// for every concrete run there must exist an abstract run that pointwise
/// refines it (Def. 5's ⊑ per state, with the abstract side free to stutter).
/// Tracks, for each concrete trace prefix, the set of abstract states that
/// can match it; a reachable empty set is a refinement violation and its
/// step is reported as the witness.  This is the direct (game) form of
/// Definition 6; check_forward_simulation is the paper's sufficient
/// condition (Def. 8 / Thm. 8.1) and implies it.  build_graph_pair, then
/// play_trace_inclusion.
[[nodiscard]] TraceInclusionResult check_trace_inclusion(
    const System& abstract_sys, const System& concrete_sys,
    const TraceInclusionOptions& options = {});

}  // namespace rc11::refinement
