#include "refinement/refinement.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

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

std::uint64_t hash_words(const std::vector<std::uint64_t>& words) {
  support::WordHasher h;
  for (const auto w : words) h.add(w);
  return h.digest();
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
  StateGraph graph;
  const engine::SystemTransitions ts(sys, engine::AmplePolicy::ClientInvisible);
  const bool want_labels = options.want_labels;
  const unsigned num_threads = options.num_threads;

  struct Keyed {
    std::vector<std::uint64_t> enc;
    Config cfg;
  };
  std::vector<Keyed> collected;
  std::mutex mu;
  engine::ReachOptions ropts;
  ropts.budget.max_states = options.max_states;
  ropts.budget.max_visited_bytes = options.max_visited_bytes;
  ropts.budget.deadline_ms = options.deadline_ms;
  ropts.num_threads = num_threads;
  ropts.por = options.por;
  ropts.mode = options.mode;
  ropts.sample = options.sample;
  ropts.cancel = options.cancel;
  ropts.fault = options.fault;
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
  graph.truncated = reach.truncated();

  std::sort(collected.begin(), collected.end(),
            [](const Keyed& a, const Keyed& b) { return a.enc < b.enc; });

  const std::size_t n = collected.size();
  graph.states.reserve(n);
  for (auto& k : collected) graph.states.push_back(std::move(k.cfg));
  graph.succ.assign(n, {});
  if (want_labels) {
    graph.labels.assign(n, {});
    graph.threads.assign(n, {});
  }

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

  support::parallel_for(n, num_threads, [&](std::size_t i) {
    // Worker-local pooled buffers (parallel_for hands out bare indices, so
    // thread_local is the per-worker hook).
    thread_local lang::StepBuffer steps;
    thread_local std::vector<std::uint64_t> scratch;
    engine::expand_steps(ts, graph.states[i], ropts, steps, want_labels);
    for (auto& step : steps.steps()) {
      scratch.clear();
      step.after.encode_into(scratch);
      const auto idx = index_of(scratch);
      // A missing successor can only happen on a truncated build (its target
      // was never claimed); the graph is already flagged unreliable then.
      if (!idx.has_value()) continue;
      graph.succ[i].push_back(*idx);
      if (want_labels) {
        graph.labels[i].push_back(std::move(step.label));
        graph.threads[i].push_back(step.thread);
      }
    }
  });

  return graph;
}

StateGraph build_graph(const System& sys, std::uint64_t max_states,
                       bool want_labels, unsigned num_threads, bool por) {
  GraphOptions options;
  options.max_states = max_states;
  options.want_labels = want_labels;
  options.num_threads = num_threads;
  options.por = por;
  return build_graph(sys, options);
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

/// Forwards the shared resource-governance knobs of the two checker option
/// structs into a GraphOptions.  `apply_sampling` gates the coverage mode:
/// only the concrete graph is ever sampled — the abstract graph is the
/// specification, and a sampled (incomplete) spec would manufacture false
/// violations, so the abstract build always enumerates exhaustively.
template <typename CheckOptions>
GraphOptions graph_options(const CheckOptions& options, bool want_labels,
                           bool apply_sampling) {
  GraphOptions gopts;
  gopts.max_states = options.max_states;
  gopts.want_labels = want_labels;
  gopts.num_threads = options.num_threads;
  gopts.por = options.por;
  gopts.max_visited_bytes = options.max_visited_bytes;
  gopts.deadline_ms = options.deadline_ms;
  gopts.cancel = options.cancel;
  gopts.fault = options.fault;
  if (apply_sampling) {
    gopts.mode = options.mode;
    gopts.sample = options.sample;
  }
  return gopts;
}

}  // namespace

SimulationResult check_forward_simulation(const System& abstract_sys,
                                          const System& concrete_sys,
                                          const SimulationOptions& options) {
  SimulationResult result;
  const StateGraph abs = build_graph(
      abstract_sys,
      graph_options(options, /*want_labels=*/false, /*apply_sampling=*/false));
  const StateGraph conc = build_graph(
      concrete_sys,
      graph_options(options, /*want_labels=*/true, /*apply_sampling=*/true));
  result.abstract_states = abs.num_states();
  result.concrete_states = conc.num_states();
  result.truncated = abs.truncated || conc.truncated;
  if (result.truncated) {
    result.diagnosis = truncation_diagnosis(abs, conc);
    return result;
  }

  // Project every state once (embarrassingly parallel: one slot per state).
  std::vector<ClientProjection> abs_proj(abs.num_states());
  support::parallel_for(abs.num_states(), options.num_threads, [&](std::size_t i) {
    abs_proj[i] = project_client(abstract_sys, abs.states[i]);
  });
  std::vector<ClientProjection> conc_proj(conc.num_states());
  support::parallel_for(conc.num_states(), options.num_threads, [&](std::size_t i) {
    conc_proj[i] = project_client(concrete_sys, conc.states[i]);
  });

  // Group abstract states by the exact-match part so candidate generation is
  // linear in matching states rather than quadratic overall.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> abs_by_key;
  for (std::uint32_t a = 0; a < abs_proj.size(); ++a) {
    abs_by_key[hash_words(abs_proj[a].exact)].push_back(a);
  }

  // Candidate pairs, stored per concrete state.
  std::vector<std::vector<std::uint32_t>> pairs_of(conc.num_states());
  const auto pair_key = [&](std::uint32_t a, std::uint32_t cidx) {
    return static_cast<std::uint64_t>(a) * conc.num_states() + cidx;
  };
  std::unordered_set<std::uint64_t> alive;
  for (std::uint32_t cidx = 0; cidx < conc_proj.size(); ++cidx) {
    const auto it = abs_by_key.find(hash_words(conc_proj[cidx].exact));
    if (it == abs_by_key.end()) continue;
    for (const auto a : it->second) {
      if (client_refines(abs_proj[a], conc_proj[cidx])) {
        pairs_of[cidx].push_back(a);
        alive.insert(pair_key(a, cidx));
      }
    }
  }
  result.candidate_pairs = alive.size();

  // Greatest fixpoint: repeatedly delete pairs with an unmatchable concrete
  // step.  (Simple sweep iteration; graphs are small.)  For diagnosis, the
  // concrete edge that killed each pair is recorded so a failure can be
  // replayed as a step chain from the initial pair.
  std::unordered_set<std::uint64_t> ever_candidate = alive;
  std::unordered_map<std::uint64_t, std::uint32_t> killer_edge;
  bool changed = true;
  while (changed) {
    changed = false;
    result.refinement_iterations += 1;
    for (std::uint32_t cidx = 0; cidx < conc_proj.size(); ++cidx) {
      auto& candidates = pairs_of[cidx];
      for (std::size_t i = 0; i < candidates.size();) {
        const auto a = candidates[i];
        bool ok = true;
        std::uint32_t offending_edge = 0;
        for (std::uint32_t e = 0; e < conc.succ[cidx].size(); ++e) {
          const auto csucc = conc.succ[cidx][e];
          // Stuttering: same abstract state still paired with the successor.
          if (alive.count(pair_key(a, csucc)) > 0) continue;
          // Non-stuttering: one abstract step.
          bool matched = false;
          for (const auto asucc : abs.succ[a]) {
            if (alive.count(pair_key(asucc, csucc)) > 0) {
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
          alive.erase(pair_key(a, cidx));
          killer_edge.emplace(pair_key(a, cidx), offending_edge);
          candidates[i] = candidates.back();
          candidates.pop_back();
          changed = true;
        }
      }
    }
  }
  result.surviving_pairs = alive.size();

  result.holds = alive.count(pair_key(abs.initial, conc.initial)) > 0;
  if (!result.holds) {
    result.diagnosis =
        result.candidate_pairs == 0
            ? "no client-compatible state pairs at all"
            : "initial pair eliminated: some concrete client step cannot be "
              "matched by the abstract object";
    // Replay the elimination chain: each eliminated pair knows the concrete
    // step none of the abstract responses could match; following such steps
    // bottoms out at a concrete state that is client-incompatible with every
    // abstract option — the real divergence.
    if (ever_candidate.count(pair_key(abs.initial, conc.initial)) > 0) {
      std::uint32_t a = abs.initial;
      std::uint32_t cidx = conc.initial;
      std::uint32_t final_c = conc.initial;
      witness::Witness w;
      w.kind = "refinement";
      w.source = "refinement::check_forward_simulation";
      w.initial_digest = witness::config_digest(conc.states[conc.initial]);
      for (int guard = 0; guard < 10000; ++guard) {
        const auto it = killer_edge.find(pair_key(a, cidx));
        if (it == killer_edge.end()) break;  // pair survived: chain complete
        const auto edge = it->second;
        const auto csucc = conc.succ[cidx][edge];
        result.counterexample.push_back(conc.labels[cidx][edge]);
        w.steps.push_back({conc.threads[cidx][edge], conc.labels[cidx][edge],
                           witness::config_digest(conc.states[csucc])});
        final_c = csucc;
        // Continue through an abstract response that was once a candidate
        // (its own elimination explains why the response fails), preferring
        // the stutter.
        std::int64_t next_a = -1;
        if (ever_candidate.count(pair_key(a, csucc)) > 0) {
          next_a = a;
        } else {
          for (const auto asucc : abs.succ[a]) {
            if (ever_candidate.count(pair_key(asucc, csucc)) > 0) {
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

TraceInclusionResult check_trace_inclusion(const System& abstract_sys,
                                           const System& concrete_sys,
                                           const TraceInclusionOptions& options) {
  TraceInclusionResult result;
  const StateGraph abs = build_graph(
      abstract_sys,
      graph_options(options, /*want_labels=*/false, /*apply_sampling=*/false));
  // The concrete graph carries labels and threads so an unmatchable step can
  // be reported as a replayable run, not just a state dump.
  const StateGraph conc = build_graph(
      concrete_sys,
      graph_options(options, /*want_labels=*/true, /*apply_sampling=*/true));
  // A sampled concrete graph (EpisodeCap) still plays the game: every
  // covered concrete state and edge is a real execution and the abstract
  // graph is complete, so an empty match set found below is a *definite*
  // refinement violation.  The result stays marked truncated — "no
  // violation" on a sample is a lower bound, never a proof.  Any other
  // truncation (either graph) leaves the game meaningless, as before.
  const bool sampled_concrete =
      conc.truncated && conc.stop == engine::StopReason::EpisodeCap;
  if (abs.truncated || (conc.truncated && !sampled_concrete)) {
    result.truncated = true;
    result.what = truncation_diagnosis(abs, conc);
    return result;
  }
  result.played = true;
  result.truncated = sampled_concrete;
  // Pre-seed the diagnosis; a found violation overwrites it with specifics.
  if (sampled_concrete) result.what = truncation_diagnosis(abs, conc);

  std::vector<ClientProjection> abs_proj(abs.num_states());
  support::parallel_for(abs.num_states(), options.num_threads, [&](std::size_t i) {
    abs_proj[i] = project_client(abstract_sys, abs.states[i]);
  });
  std::vector<ClientProjection> conc_proj(conc.num_states());
  support::parallel_for(conc.num_states(), options.num_threads, [&](std::size_t i) {
    conc_proj[i] = project_client(concrete_sys, conc.states[i]);
  });

  // Thread-symmetry quotient of the product (see TraceInclusionOptions):
  // enumerate the shared permutation group and precompute, per permutation,
  // the state-index image in each graph (graph states are encoding-sorted,
  // so images resolve by binary search over re-encoded states; on a
  // complete graph every image is present by equivariance).
  std::vector<engine::ThreadPerm> perms;  // non-identity group elements
  std::vector<std::vector<std::uint32_t>> abs_maps, conc_maps;  // per perm
  if (options.symmetry && !sampled_concrete) {
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
  // Dedup is by *canonical form* under the symmetry quotient (the identity
  // form otherwise); arena nodes keep the concrete successor actually
  // reached, so parent chains remain real runs and witnesses replay.
  std::vector<NodeForm> forms;  // parallel to nodes
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> visited;
  const auto node_key = [](const NodeForm& form) {
    support::WordHasher h;
    h.add(form.first);
    for (const auto a : form.second) h.add(a);
    return h.digest();
  };
  const auto visit = [&](Node n) -> bool {
    NodeForm form =
        quotient ? canonical_form(n.c, n.match) : NodeForm{n.c, n.match};
    auto& bucket = visited[node_key(form)];
    for (const auto existing : bucket) {
      if (forms[existing] == form) return false;
    }
    bucket.push_back(nodes.size());
    forms.push_back(std::move(form));
    nodes.push_back(std::move(n));
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
    for (const auto n : chain) {
      const std::uint32_t from = nodes[nodes[n].parent].c;
      const std::uint32_t e = nodes[n].via_edge;
      w.steps.push_back({conc.threads[from][e], conc.labels[from][e],
                         witness::config_digest(conc.states[nodes[n].c])});
    }
    const std::uint32_t from = nodes[node_idx].c;
    const std::uint32_t to = conc.succ[from][edge];
    w.steps.push_back({conc.threads[from][edge], conc.labels[from][edge],
                       witness::config_digest(conc.states[to])});
    w.state_dump = conc.states[to].to_string(concrete_sys);
    return w;
  };

  std::deque<std::size_t> work;
  {
    Node init{conc.initial, {}, 0, 0};
    if (client_refines(abs_proj[abs.initial], conc_proj[conc.initial])) {
      init.match.push_back(abs.initial);
    }
    if (init.match.empty()) {
      result.what = "initial concrete state refines no abstract state";
      return result;
    }
    visit(std::move(init));
    work.push_back(0);
  }

  result.holds = true;
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
    const std::vector<std::uint32_t> node_match = nodes[node_idx].match;

    for (std::uint32_t e = 0; e < conc.succ[node_c].size(); ++e) {
      const auto csucc = conc.succ[node_c][e];
      Node next{csucc, {}, node_idx, e};
      for (const auto a : node_match) {
        // Abstract stutter.
        if (client_refines(abs_proj[a], conc_proj[csucc])) {
          next.match.push_back(a);
        }
        // One abstract step.
        for (const auto asucc : abs.succ[a]) {
          if (client_refines(abs_proj[asucc], conc_proj[csucc])) {
            next.match.push_back(asucc);
          }
        }
      }
      std::sort(next.match.begin(), next.match.end());
      next.match.erase(std::unique(next.match.begin(), next.match.end()),
                       next.match.end());
      if (next.match.empty()) {
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
      if (visit(std::move(next))) {
        work.push_back(nodes.size() - 1);
      }
    }
  }
  return result;
}

}  // namespace rc11::refinement
