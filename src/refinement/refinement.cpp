#include "refinement/refinement.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "engine/reach.hpp"
#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

namespace rc11::refinement {

using memsem::Component;
using memsem::LocId;
using memsem::OpId;

ClientProjection project_client(const System& sys, const Config& cfg) {
  ClientProjection proj;
  // Client registers (Def. 5's ls_|C, including the rval of every method).
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < cfg.regs[t].size(); ++r) {
      if (sys.reg_component(t, r) == Component::Client) {
        proj.exact.push_back(static_cast<std::uint64_t>(cfg.regs[t][r]));
      }
    }
  }
  // Client-variable histories: kind, writer, value, covered, in mo order.
  const auto& locs = sys.locations();
  for (LocId loc = 0; loc < locs.size(); ++loc) {
    if (locs.component(loc) != Component::Client) continue;
    const auto order = cfg.mem.mo(loc);
    proj.exact.push_back(order.size());
    for (const OpId w : order) {
      const auto& op = cfg.mem.op(w);
      std::uint64_t tag = static_cast<std::uint64_t>(op.kind);
      tag |= static_cast<std::uint64_t>(op.thread) << 8;
      tag |= static_cast<std::uint64_t>(op.covered) << 40;
      tag |= static_cast<std::uint64_t>(op.releasing) << 41;
      proj.exact.push_back(tag);
      proj.exact.push_back(static_cast<std::uint64_t>(op.value));
    }
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      proj.view_ranks.push_back(cfg.mem.rank(cfg.mem.view_front(t, loc)));
    }
  }
  return proj;
}

bool client_refines(const ClientProjection& abs, const ClientProjection& conc) {
  if (abs.exact != conc.exact) return false;
  RC11_REQUIRE(abs.view_ranks.size() == conc.view_ranks.size(),
               "client projections over different systems");
  for (std::size_t i = 0; i < abs.view_ranks.size(); ++i) {
    // Obs_C(t, x) ⊆ Obs_A(t, x): the concrete viewfront is at least as far
    // along modification order.
    if (conc.view_ranks[i] < abs.view_ranks[i]) return false;
  }
  return true;
}

namespace {

/// Backs graph_states_built().
std::atomic<std::uint64_t> states_built{0};

std::uint64_t hash_words(const std::vector<std::uint64_t>& words) {
  support::WordHasher h;
  for (const auto w : words) h.add(w);
  return h.digest();
}

/// Rejects what refinement does not honour of a RunControl (see
/// GraphOptions): the rf-quotient and checkpoint/resume everywhere,
/// symmetry unless the caller quotients the trace-inclusion product with
/// it.  The engine's own rules run first, so a sampled trace-inclusion
/// check cannot drop its symmetry setting silently.
void require_refinement_subset(const engine::RunControl& r,
                               bool product_symmetry) {
  const std::string conflict = engine::reduction_conflict(r);
  support::require(conflict.empty(), conflict);
  support::require(
      r.checkpoint_path.empty() && r.resume == nullptr,
      "--checkpoint/--resume are not supported by the refinement checks: a "
      "check builds two state graphs, so a single checkpoint file is "
      "ambiguous (use --deadline-ms / --mem-budget to bound the run "
      "instead)");
  support::require(
      !r.rf_quotient,
      "--rf-quotient is not supported by the refinement checks: they compare "
      "client projections across two systems, which the execution-graph "
      "quotient does not relate (use --por or --symmetry to shrink the "
      "graphs instead)");
  support::require(
      product_symmetry || !r.symmetry,
      "--symmetry is not supported by state-graph builds or the Def. 8 "
      "simulation: graph states must be concrete, and a quotiented fixpoint "
      "would change which pairs its diagnosis can cite (the trace-inclusion "
      "check quotients its product instead)");
}

}  // namespace

StateGraph build_graph(const System& sys, const GraphOptions& options) {
  // Two-phase construction on the shared reachability driver, for every
  // thread count.  Phase 1 collects every reachable configuration; states
  // are then sorted by canonical encoding so indices are
  // schedule-independent.  Phase 2 recomputes each state's successors —
  // through engine::expand_steps, so edges mirror exactly the (possibly
  // POR-reduced) relation phase 1 explored — and resolves them against the
  // sorted encoding index by binary search: purely read-only lookups, so no
  // locking is needed.
  require_refinement_subset(options, /*product_symmetry=*/false);
  StateGraph graph;
  const engine::TransitionSystem ts(sys, engine::AmplePolicy::ClientInvisible);
  const bool want_labels = options.want_labels;

  struct Keyed {
    std::vector<std::uint64_t> enc;
    Config cfg;
  };
  std::vector<Keyed> collected;
  std::mutex mu;
  engine::ReachOptions ropts;
  static_cast<engine::RunControl&>(ropts) = options;
  const auto reach = engine::visit_reachable(
      ts, ropts,
      [&](const Config& cfg, std::uint64_t /*id*/,
          std::span<const lang::Step>) -> bool {
        Keyed k{cfg.encode(), cfg};
        std::lock_guard<std::mutex> lock(mu);
        collected.push_back(std::move(k));
        return true;
      });
  graph.stop = reach.stop;
  graph.stats = reach.stats;
  graph.por = options.por;

  std::sort(collected.begin(), collected.end(),
            [](const Keyed& a, const Keyed& b) { return a.enc < b.enc; });

  const std::size_t n = collected.size();
  graph.states.reserve(n);
  for (auto& k : collected) graph.states.push_back(std::move(k.cfg));
  graph.succ.assign(n, {});
  graph.threads.assign(n, {});
  graph.step_index.assign(n, {});
  if (want_labels) graph.labels.assign(n, {});

  const auto index_of = [&](const std::vector<std::uint64_t>& enc)
      -> std::optional<std::uint32_t> {
    const auto it = std::lower_bound(
        collected.begin(), collected.end(), enc,
        [](const Keyed& k, const std::vector<std::uint64_t>& e) {
          return k.enc < e;
        });
    if (it == collected.end() || it->enc != enc) return std::nullopt;
    return static_cast<std::uint32_t>(it - collected.begin());
  };

  {
    const auto init = index_of(lang::initial_config(sys).encode());
    RC11_REQUIRE(init.has_value(), "initial state missing from state graph");
    graph.initial = *init;
  }

  support::parallel_for(n, options.num_threads, [&](std::size_t i) {
    // Worker-local pooled buffers (parallel_for hands out bare indices, so
    // thread_local is the per-worker hook).
    thread_local lang::StepBuffer steps;
    thread_local std::vector<std::uint64_t> scratch;
    engine::expand_steps(ts, graph.states[i], ropts, steps, want_labels);
    const auto out = steps.steps();
    for (std::uint32_t k = 0; k < out.size(); ++k) {
      scratch.clear();
      out[k].after.encode_into(scratch);
      const auto idx = index_of(scratch);
      // A missing successor can only happen on a truncated build (its target
      // was never claimed); the graph is already flagged unreliable then.
      if (!idx.has_value()) continue;
      graph.succ[i].push_back(*idx);
      graph.threads[i].push_back(out[k].thread);
      graph.step_index[i].push_back(k);
      if (want_labels) graph.labels[i].push_back(std::move(out[k].label));
    }
  });

  states_built.fetch_add(n, std::memory_order_relaxed);
  return graph;
}

EdgeLabel edge_label(const System& sys, const StateGraph& graph,
                     std::uint32_t state, std::uint32_t edge) {
  const engine::TransitionSystem ts(sys, engine::AmplePolicy::ClientInvisible);
  engine::ReachOptions ropts;
  ropts.por = graph.por;
  lang::StepBuffer steps;
  engine::expand_steps(ts, graph.states[state], ropts, steps,
                       /*want_labels=*/true);
  const auto k = graph.step_index[state][edge];
  RC11_REQUIRE(k < steps.size(), "edge step index outside its expansion");
  const lang::Step& step = steps.steps()[k];
  return {step.thread, step.label};
}

std::uint64_t graph_states_built() {
  return states_built.load(std::memory_order_relaxed);
}

namespace {

/// Diagnosis for an incomplete graph build: says *which* graph (abstract vs
/// concrete) stopped on *which* bound, with the matching remedy — sourced
/// from StopReason instead of the old generic "state graph truncated".
std::string truncation_diagnosis(const StateGraph& abs, const StateGraph& conc) {
  const auto describe = [](const char* which,
                           engine::StopReason stop) -> std::string {
    const char* hint = nullptr;
    switch (stop) {
      case engine::StopReason::Complete:
        return {};
      case engine::StopReason::StateCap:
        hint = "hit the state cap; increase max_states";
        break;
      case engine::StopReason::MemCap:
        hint = "hit the memory budget; raise --mem-budget";
        break;
      case engine::StopReason::Deadline:
        hint = "hit the deadline; raise --deadline-ms";
        break;
      case engine::StopReason::Interrupted:
        hint = "was interrupted before completing";
        break;
      case engine::StopReason::InjectedFault:
        hint = "stopped on an injected fault (RC11_FAULT)";
        break;
      case engine::StopReason::EpisodeCap:
        hint =
            "is a sampled subgraph (episode budget exhausted); coverage is a "
            "lower bound — raise --strategy sample:N for more episodes";
        break;
    }
    return support::concat(which, " state graph ", hint);
  };
  std::string msg = describe("abstract", abs.stop);
  const std::string conc_msg = describe("concrete", conc.stop);
  if (!msg.empty() && !conc_msg.empty()) msg += "; ";
  return msg + conc_msg;
}

constexpr std::uint32_t kNoPair = 0xffffffffu;

/// Position of (a, c) in pair.compat, or kNoPair when concrete state c does
/// not refine abstract state a.  Games keep per-pair data in arrays parallel
/// to pair.compat.
std::uint32_t pair_index(const GraphPair& pair, std::uint32_t a,
                         std::uint32_t c) {
  const auto first = pair.compat.begin() + pair.compat_begin[c];
  const auto last = pair.compat.begin() + pair.compat_begin[c + 1];
  const auto it = std::lower_bound(first, last, a);
  if (it == last || *it != a) return kNoPair;
  return static_cast<std::uint32_t>(it - pair.compat.begin());
}

/// Def. 5: does concrete state c refine abstract state a?
bool refines(const GraphPair& pair, std::uint32_t a, std::uint32_t c) {
  return pair_index(pair, a, c) != kNoPair;
}

/// Whether a game can run on the pair: the abstract graph is complete and
/// the concrete one is complete or a sample.
bool playable(const GraphPair& pair) {
  return pair.abs.stop == engine::StopReason::Complete &&
         (pair.conc.stop == engine::StopReason::Complete ||
          pair.conc.stop == engine::StopReason::EpisodeCap);
}

template <typename CheckOptions>
GraphPair build_pair(const System& abstract_sys, const System& concrete_sys,
                     const CheckOptions& options, bool product_symmetry) {
  require_refinement_subset(options, product_symmetry);
  GraphPair pair;
  pair.abstract_sys = &abstract_sys;
  pair.concrete_sys = &concrete_sys;
  // Both builds take the check's settings, except that symmetry never
  // reaches a build (trace inclusion spends it on the product) and only the
  // concrete graph is ever sampled: the abstract graph is the
  // specification, and a sampled (incomplete) spec would manufacture false
  // violations.
  GraphOptions conc_opts;
  static_cast<engine::RunControl&>(conc_opts) = options;
  conc_opts.symmetry = false;
  GraphOptions abs_opts = conc_opts;
  abs_opts.mode = engine::Strategy::Exhaustive;
  pair.abs = build_graph(abstract_sys, abs_opts);
  pair.conc = build_graph(concrete_sys, conc_opts);
  if (!playable(pair)) return pair;

  // Project every state once (embarrassingly parallel: one slot per state).
  const auto project_all = [&](const System& sys, const StateGraph& g) {
    std::vector<ClientProjection> proj(g.num_states());
    support::parallel_for(g.num_states(), options.num_threads,
                          [&](std::size_t i) {
                            proj[i] = project_client(sys, g.states[i]);
                          });
    return proj;
  };
  const auto abs_proj = project_all(abstract_sys, pair.abs);
  const auto conc_proj = project_all(concrete_sys, pair.conc);

  // Group abstract states by the exact-match part so the relation costs
  // time linear in matching states rather than quadratic overall.  Each
  // group lists its states ascending, so every concrete state's list is
  // sorted as built.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> abs_by_key;
  for (std::uint32_t a = 0; a < abs_proj.size(); ++a) {
    abs_by_key[hash_words(abs_proj[a].exact)].push_back(a);
  }
  pair.compat_begin.reserve(conc_proj.size() + 1);
  pair.compat_begin.push_back(0);
  for (std::uint32_t c = 0; c < conc_proj.size(); ++c) {
    const auto it = abs_by_key.find(hash_words(conc_proj[c].exact));
    if (it != abs_by_key.end()) {
      for (const auto a : it->second) {
        if (client_refines(abs_proj[a], conc_proj[c])) pair.compat.push_back(a);
      }
    }
    pair.compat_begin.push_back(static_cast<std::uint32_t>(pair.compat.size()));
  }
  return pair;
}

}  // namespace

GraphPair build_graph_pair(const System& abstract_sys,
                           const System& concrete_sys,
                           const SimulationOptions& options) {
  return build_pair(abstract_sys, concrete_sys, options,
                    /*product_symmetry=*/false);
}

GraphPair build_graph_pair(const System& abstract_sys,
                           const System& concrete_sys,
                           const TraceInclusionOptions& options) {
  return build_pair(abstract_sys, concrete_sys, options,
                    /*product_symmetry=*/true);
}

SimulationResult play_forward_simulation(const GraphPair& pair) {
  SimulationResult result;
  const StateGraph& abs = pair.abs;
  const StateGraph& conc = pair.conc;
  result.abstract_states = abs.num_states();
  result.concrete_states = conc.num_states();
  result.truncated = abs.stop != engine::StopReason::Complete ||
                     conc.stop != engine::StopReason::Complete;
  if (result.truncated) {
    result.diagnosis = truncation_diagnosis(abs, conc);
    return result;
  }

  // Candidate pairs are the compatibility relation.  Per-pair state lives
  // in arrays parallel to pair.compat: whether the pair is still alive and,
  // once eliminated, the concrete edge that killed it (so a failure can be
  // replayed as a step chain from the initial pair).  Every candidate was
  // once alive, so "ever a candidate" is membership in pair.compat.
  const std::size_t num_pairs = pair.compat.size();
  const std::uint32_t num_conc = static_cast<std::uint32_t>(conc.num_states());
  result.candidate_pairs = num_pairs;
  std::vector<std::uint8_t> alive(num_pairs, 1);
  std::vector<std::uint32_t> killer_edge(num_pairs, 0);
  const auto is_alive = [&](std::uint32_t a, std::uint32_t c) {
    const auto k = pair_index(pair, a, c);
    return k != kNoPair && alive[k] != 0;
  };
  // Each concrete state's live candidates, as positions in pair.compat:
  // order[compat_begin[c] .. compat_begin[c] + live[c]).  An eliminated
  // candidate is swap-removed, so the sweep visits candidates in the same
  // order as a per-state candidate vector would.
  std::vector<std::uint32_t> order(num_pairs);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> live(num_conc);
  for (std::uint32_t c = 0; c < num_conc; ++c) {
    live[c] = pair.compat_begin[c + 1] - pair.compat_begin[c];
  }

  // Greatest fixpoint: repeatedly delete pairs with an unmatchable concrete
  // step.  (Simple sweep iteration; graphs are small.)  A candidate's check
  // reads only the pairs at its concrete successors, so a state none of
  // whose successors lost a pair since its candidates were last checked
  // would pass them all again: the sweep skips it.  Elimination order,
  // killer edges and iteration count are those of the full sweep.
  std::uint64_t eliminated = 0;
  std::vector<std::uint64_t> lost_at(num_conc, 0);     // `eliminated` stamps
  std::vector<std::uint64_t> checked_at(num_conc, 0);
  const auto unchanged_since_check = [&](std::uint32_t c) {
    for (const auto csucc : conc.succ[c]) {
      if (lost_at[csucc] > checked_at[c]) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const bool first_sweep = result.refinement_iterations == 0;
    result.refinement_iterations += 1;
    for (std::uint32_t cidx = 0; cidx < num_conc; ++cidx) {
      if (!first_sweep && unchanged_since_check(cidx)) continue;
      checked_at[cidx] = eliminated;
      std::uint32_t* const candidates = order.data() + pair.compat_begin[cidx];
      for (std::uint32_t i = 0; i < live[cidx];) {
        const auto k = candidates[i];
        const auto a = pair.compat[k];
        bool ok = true;
        std::uint32_t offending_edge = 0;
        for (std::uint32_t e = 0; e < conc.succ[cidx].size(); ++e) {
          const auto csucc = conc.succ[cidx][e];
          // Stuttering: same abstract state still paired with the successor.
          if (is_alive(a, csucc)) continue;
          // Non-stuttering: one abstract step.
          bool matched = false;
          for (const auto asucc : abs.succ[a]) {
            if (is_alive(asucc, csucc)) {
              matched = true;
              break;
            }
          }
          if (!matched) {
            ok = false;
            offending_edge = e;
            break;
          }
        }
        if (ok) {
          ++i;
        } else {
          alive[k] = 0;
          killer_edge[k] = offending_edge;
          candidates[i] = candidates[live[cidx] - 1];
          live[cidx] -= 1;
          lost_at[cidx] = ++eliminated;
          changed = true;
        }
      }
    }
  }
  for (const auto flag : alive) result.surviving_pairs += flag;

  result.holds = is_alive(abs.initial, conc.initial);
  if (!result.holds) {
    result.diagnosis =
        result.candidate_pairs == 0
            ? "no client-compatible state pairs at all"
            : "initial pair eliminated: some concrete client step cannot be "
              "matched by the abstract object";
    // Replay the elimination chain: each eliminated pair knows the concrete
    // step none of the abstract responses could match; following such steps
    // bottoms out at a concrete state that is client-incompatible with every
    // abstract option — the real divergence.  Only the edges the chain
    // cites get their labels regenerated.
    if (refines(pair, abs.initial, conc.initial)) {
      const System& concrete_sys = *pair.concrete_sys;
      std::uint32_t a = abs.initial;
      std::uint32_t cidx = conc.initial;
      std::uint32_t final_c = conc.initial;
      witness::Witness w;
      w.kind = "refinement";
      w.source = "refinement::check_forward_simulation";
      w.initial_digest = witness::config_digest(conc.states[conc.initial]);
      for (int guard = 0; guard < 10000; ++guard) {
        const auto k = pair_index(pair, a, cidx);
        if (alive[k] != 0) break;  // pair survived: chain complete
        const auto edge = killer_edge[k];
        const auto csucc = conc.succ[cidx][edge];
        EdgeLabel step = edge_label(concrete_sys, conc, cidx, edge);
        result.counterexample.push_back(step.label);
        w.steps.push_back({step.thread, std::move(step.label),
                           witness::config_digest(conc.states[csucc])});
        final_c = csucc;
        // Continue through an abstract response that was once a candidate
        // (its own elimination explains why the response fails), preferring
        // the stutter.
        std::int64_t next_a = -1;
        if (refines(pair, a, csucc)) {
          next_a = a;
        } else {
          for (const auto asucc : abs.succ[a]) {
            if (refines(pair, asucc, csucc)) {
              next_a = asucc;
              break;
            }
          }
        }
        if (next_a < 0) {
          result.counterexample.push_back(
              "-- divergence: this concrete state is client-incompatible "
              "with every abstract continuation");
          break;
        }
        a = static_cast<std::uint32_t>(next_a);
        cidx = csucc;
      }
      if (!w.steps.empty()) {
        // The witness is the concrete half of the failed game: a real run of
        // concrete_sys into the diverging state (the sentinel note above is
        // commentary, not a step, so it only appears in `counterexample`).
        w.what = result.diagnosis;
        w.state_dump = conc.states[final_c].to_string(concrete_sys);
        result.witness = std::move(w);
      }
    }
  }
  return result;
}

SimulationResult check_forward_simulation(const System& abstract_sys,
                                          const System& concrete_sys,
                                          const SimulationOptions& options) {
  return play_forward_simulation(
      build_graph_pair(abstract_sys, concrete_sys, options));
}

TraceInclusionResult play_trace_inclusion(const GraphPair& pair,
                                          const TraceInclusionOptions& options) {
  TraceInclusionResult result;
  const System& abstract_sys = *pair.abstract_sys;
  const System& concrete_sys = *pair.concrete_sys;
  const StateGraph& abs = pair.abs;
  const StateGraph& conc = pair.conc;
  // A sampled concrete graph (EpisodeCap) still plays the game: every
  // covered concrete state and edge is a real execution and the abstract
  // graph is complete, so an empty match set found below is a *definite*
  // refinement violation.  The result stays marked truncated — "no
  // violation" on a sample is a lower bound, never a proof.  Any other
  // truncation (either graph) leaves the game meaningless, as before.
  const bool sampled_concrete = conc.stop == engine::StopReason::EpisodeCap;
  if (!playable(pair)) {
    result.truncated = true;
    result.what = truncation_diagnosis(abs, conc);
    return result;
  }
  result.played = true;
  result.truncated = sampled_concrete;
  // Pre-seed the diagnosis; a found violation overwrites it with specifics.
  if (sampled_concrete) result.what = truncation_diagnosis(abs, conc);

  // Thread-symmetry quotient of the product (see TraceInclusionOptions):
  // enumerate the shared permutation group and precompute, per permutation,
  // the state-index image in each graph (graph states are encoding-sorted,
  // so images resolve by binary search over re-encoded states; on a
  // complete graph every image is present by equivariance).
  std::vector<engine::ThreadPerm> perms;  // non-identity group elements
  std::vector<std::vector<std::uint32_t>> abs_maps, conc_maps;  // per perm
  if (options.symmetry) {
    const engine::SymmetryReducer abs_red(abstract_sys);
    const engine::SymmetryReducer conc_red(concrete_sys);
    if (abs_red.symmetric() && conc_red.symmetric() &&
        abs_red.classes() == conc_red.classes()) {
      conc_red.for_each_perm([&](const engine::ThreadPerm& p) {
        for (std::size_t t = 0; t < p.size(); ++t) {
          if (p[t] != t) {
            perms.push_back(p);
            return;
          }
        }
      });
      const auto build_maps = [&perms](const engine::SymmetryReducer& red,
                                       const StateGraph& g) {
        std::vector<std::vector<std::uint64_t>> encs(g.num_states());
        for (std::size_t i = 0; i < g.num_states(); ++i) {
          encs[i] = g.states[i].encode();
        }
        std::vector<std::vector<std::uint32_t>> maps(
            perms.size(), std::vector<std::uint32_t>(g.num_states()));
        for (std::size_t p = 0; p < perms.size(); ++p) {
          for (std::size_t i = 0; i < g.num_states(); ++i) {
            const auto enc = red.permuted(g.states[i], perms[p]).encode();
            const auto it = std::lower_bound(encs.begin(), encs.end(), enc);
            RC11_REQUIRE(it != encs.end() && *it == enc,
                         "permuted state missing from a complete state graph "
                         "(symmetry classes are not sound for this system)");
            maps[p][i] =
                static_cast<std::uint32_t>(it - encs.begin());
          }
        }
        return maps;
      };
      abs_maps = build_maps(abs_red, abs);
      conc_maps = build_maps(conc_red, conc);
    }
  }
  const bool quotient = !perms.empty();
  using NodeForm = std::pair<std::uint32_t, std::vector<std::uint32_t>>;
  // Lexicographically minimal simultaneous permutation image of a product
  // node — a pure function of the node's orbit, used as the dedup key.
  const auto canonical_form = [&](std::uint32_t c,
                                  const std::vector<std::uint32_t>& match) {
    NodeForm best{c, match};
    std::vector<std::uint32_t> m;
    for (std::size_t p = 0; p < perms.size(); ++p) {
      const std::uint32_t pc = conc_maps[p][c];
      if (pc > best.first) continue;
      m.clear();
      for (const auto a : match) m.push_back(abs_maps[p][a]);
      std::sort(m.begin(), m.end());
      if (pc < best.first || m < best.second) {
        best.first = pc;
        best.second = m;
      }
    }
    return best;
  };

  // Subset construction: a node is (concrete state, sorted set of abstract
  // states whose runs pointwise refine the concrete prefix so far).  Nodes
  // live in an arena with parent back-pointers so a violation can replay the
  // concrete prefix that led to it.
  struct Node {
    std::uint32_t c;
    std::vector<std::uint32_t> match;  // sorted
    std::size_t parent;                // arena index (self-index for the root)
    std::uint32_t via_edge = 0;        // edge in conc.succ[nodes[parent].c]
  };
  std::vector<Node> nodes;
  // Dedup is by *canonical form* under the symmetry quotient (a node is its
  // own form otherwise); arena nodes keep the concrete successor actually
  // reached, so parent chains remain real runs and witnesses replay.
  std::vector<NodeForm> forms;  // parallel to nodes, under the quotient only
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> visited;
  const auto node_key = [](std::uint32_t c,
                           const std::vector<std::uint32_t>& match) {
    support::WordHasher h;
    h.add(c);
    for (const auto a : match) h.add(a);
    return h.digest();
  };
  // Adds the node (c, match) reached from `parent` over `via_edge` unless an
  // equal (or, under the quotient, equivalent) node is already in the arena.
  // `match` is the caller's scratch; only a new node copies it.
  const auto visit = [&](std::uint32_t c,
                         const std::vector<std::uint32_t>& match,
                         std::size_t parent, std::uint32_t via_edge) -> bool {
    if (quotient) {
      NodeForm form = canonical_form(c, match);
      auto& bucket = visited[node_key(form.first, form.second)];
      for (const auto existing : bucket) {
        if (forms[existing] == form) return false;
      }
      bucket.push_back(nodes.size());
      forms.push_back(std::move(form));
    } else {
      auto& bucket = visited[node_key(c, match)];
      for (const auto existing : bucket) {
        if (nodes[existing].c == c && nodes[existing].match == match) {
          return false;
        }
      }
      bucket.push_back(nodes.size());
    }
    nodes.push_back({c, match, parent, via_edge});
    return true;
  };

  /// Replayable concrete run: the arena chain root -> `node_idx`, plus the
  /// final unmatchable edge `edge` out of nodes[node_idx].c.
  const auto build_witness = [&](std::size_t node_idx, std::uint32_t edge) {
    witness::Witness w;
    w.kind = "refinement";
    w.source = "refinement::check_trace_inclusion";
    w.initial_digest = witness::config_digest(conc.states[conc.initial]);
    std::vector<std::size_t> chain;
    for (std::size_t n = node_idx; nodes[n].parent != n; n = nodes[n].parent) {
      chain.push_back(n);
    }
    std::reverse(chain.begin(), chain.end());
    const auto add_step = [&](std::uint32_t from, std::uint32_t e) {
      EdgeLabel step = edge_label(concrete_sys, conc, from, e);
      w.steps.push_back(
          {step.thread, std::move(step.label),
           witness::config_digest(conc.states[conc.succ[from][e]])});
    };
    for (const auto n : chain) add_step(nodes[nodes[n].parent].c, nodes[n].via_edge);
    const std::uint32_t from = nodes[node_idx].c;
    const std::uint32_t to = conc.succ[from][edge];
    add_step(from, edge);
    w.state_dump = conc.states[to].to_string(concrete_sys);
    return w;
  };

  std::deque<std::size_t> work;
  if (!refines(pair, abs.initial, conc.initial)) {
    result.what = "initial concrete state refines no abstract state";
    return result;
  }
  visit(conc.initial, {abs.initial}, 0, 0);
  work.push_back(0);

  result.holds = true;
  std::vector<std::uint32_t> node_match;
  std::vector<std::uint32_t> next_match;
  while (!work.empty()) {
    if (result.product_nodes >= options.max_product_nodes) {
      result.truncated = true;
      result.what = "product exploration truncated";
      break;
    }
    const std::size_t node_idx = work.front();
    work.pop_front();
    result.product_nodes += 1;
    // Copy out: the arena may reallocate while successors are inserted.
    const std::uint32_t node_c = nodes[node_idx].c;
    node_match = nodes[node_idx].match;

    for (std::uint32_t e = 0; e < conc.succ[node_c].size(); ++e) {
      const auto csucc = conc.succ[node_c][e];
      next_match.clear();
      for (const auto a : node_match) {
        // Abstract stutter.
        if (refines(pair, a, csucc)) next_match.push_back(a);
        // One abstract step.
        for (const auto asucc : abs.succ[a]) {
          if (refines(pair, asucc, csucc)) next_match.push_back(asucc);
        }
      }
      std::sort(next_match.begin(), next_match.end());
      next_match.erase(std::unique(next_match.begin(), next_match.end()),
                       next_match.end());
      if (next_match.empty()) {
        result.holds = false;
        result.what = support::concat(
            "concrete step into state ", csucc,
            " cannot be matched by any abstract run:\n",
            conc.states[csucc].to_string(concrete_sys));
        witness::Witness w = build_witness(node_idx, e);
        w.what = support::concat("concrete step into state ", csucc,
                                 " cannot be matched by any abstract run");
        result.witness = std::move(w);
        return result;
      }
      if (visit(csucc, next_match, node_idx, e)) {
        work.push_back(nodes.size() - 1);
      }
    }
  }
  return result;
}

TraceInclusionResult check_trace_inclusion(const System& abstract_sys,
                                           const System& concrete_sys,
                                           const TraceInclusionOptions& options) {
  return play_trace_inclusion(
      build_graph_pair(abstract_sys, concrete_sys, options), options);
}

}  // namespace rc11::refinement
