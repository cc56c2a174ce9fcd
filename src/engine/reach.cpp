#include "engine/reach.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/checkpoint.hpp"
#include "support/diagnostics.hpp"
#include "support/parallel.hpp"

namespace rc11::engine {

namespace {

/// A frontier entry: the configuration plus its id in the trace sink (the
/// id stays kNoState when no sink is attached).
struct Frontier {
  Config cfg;
  std::uint64_t id = ShardedVisitedSet::kNoState;
  /// Sleeping-thread mask in this configuration's concrete thread
  /// coordinates (sleep-set runs only; 0 otherwise).
  std::uint64_t sleep = 0;
  /// Re-expansion of an already-visited state whose stored sleep mask
  /// strictly shrank (Godefroid's revisit rule): successors are reprocessed
  /// with the smaller mask, but the state is not re-counted, the visitor
  /// does not fire again, and no state claim is consumed.
  bool revisit = false;
};

/// Builds the run's state abstraction: the symmetry orbit quotient, the
/// execution-graph quotient, or the concrete identity — which is also what
/// a symmetry request gets on a system with no interchangeable threads.
/// reduction_conflict has already rejected symmetry+rf_quotient.
std::unique_ptr<StateAbstraction> make_abstraction(
    const System& sys, const ReachOptions& options) {
  if (options.symmetry) {
    auto abs = make_symmetry_abstraction(sys);
    if (abs->nontrivial()) return abs;
  } else if (options.rf_quotient) {
    return make_rf_quotient_abstraction(sys, options.rf_pins);
  }
  return make_concrete_abstraction();
}

/// How a run decides whether a successor is new.
enum class Membership : std::uint8_t {
  /// Traced identity runs: the trace sink's own insert_traced.  The sink is
  /// the visited set, so recording the parent link and the once-only insert
  /// decision are one atomic step.
  Sink,
  /// Untraced identity runs: a plain insert() into the run's own set, with
  /// no ids and no masks.
  Plain,
  /// A quotient or sleep sets: insert_masked() on the abstract key, into the
  /// run's own set.  A trace sink, if attached, stays concrete and records
  /// every really-taken step; the masked set decides expansion ownership.
  Masked,
};

/// What every worker of one run shares.
struct Run {
  const TransitionSystem& ts;
  ShardedVisitedSet* trace;    ///< caller's trace sink, or null
  ShardedVisitedSet& visited;  ///< the run's own set; unused under Sink
  Membership membership;
  bool collapse;  ///< POR chain collapse (TransitionSystem::collapse_chains)
  bool sleep;     ///< sleep-set pruning (at most 64 threads)
};

/// One worker's state: its abstraction instance (key() reuses mutable
/// scratch), pooled step buffers, and its share of the run's statistics,
/// summed after the join.  Cache-line aligned so neighbouring workers'
/// counters never share a line.
struct alignas(64) Worker {
  std::unique_ptr<StateAbstraction> abs;
  ExploreStats stats;
  lang::StepBuffer steps;        // pooled successor storage
  lang::StepBuffer chain_steps;  // separate pool: collapse runs mid-expansion
  std::vector<std::uint64_t> scratch;  // reusable encoding buffer
  AbstractKey key;
  std::array<lang::StepMeta, 64> meta{};  // per-thread run metadata (sleep)
  std::vector<Frontier> batch;       // items taken from the frontier
  std::vector<Frontier> discovered;  // successors bound for the frontier
};

/// Seeds a run from a checkpoint (RunControl::resume): every checkpointed
/// state enters the trace sink when one is attached (with its recorded
/// parent link and enqueued flag, so a later checkpoint of the resumed run
/// is still faithful), and every *enqueued* state goes into the run's own
/// set through `seed` and onto the frontier for (re-)expansion.
/// Chain-internal POR states are interned in the sink but never enqueued,
/// exactly as the original run left them; untraced runs never intern them.
/// Sleep masks restart empty: resume re-expands every enqueued state anyway,
/// and the empty mask skips nothing — sound, only pruning is lost.
template <typename Seed>
void seed_from_checkpoint(const TransitionSystem& ts, const Checkpoint& ckpt,
                          ShardedVisitedSet* trace, Seed&& seed,
                          std::deque<Frontier>& frontier) {
  std::vector<Config> configs = restore_states(ts, ckpt);
  std::vector<std::uint64_t> ids(configs.size(), ShardedVisitedSet::kNoState);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Checkpoint::State& state = ckpt.states[i];
    if (trace != nullptr) {
      const std::uint64_t parent =
          state.parent < 0 ? ShardedVisitedSet::kNoState
                           : ids[static_cast<std::size_t>(state.parent)];
      const auto ins =
          trace->insert_traced(state.encoding, parent, state.thread,
                               std::string(state.label), state.enqueued);
      RC11_REQUIRE(ins.inserted,
                   "resume requires an empty trace sink and a duplicate-free "
                   "checkpoint");
      ids[i] = ins.id;
    }
    if (state.enqueued) {
      seed(configs[i]);
      frontier.push_back({std::move(configs[i]), ids[i]});
    }
  }
}

// --- POR chain collapse ------------------------------------------------------

/// The thread whose single deterministic local step chain collapse
/// fast-forwards at `cfg`: the ample thread, when its next instruction is
/// local (Assign / Branch / Jump — exactly one successor, no memory effect);
/// nullopt when no chain starts.  A pure function of `cfg`, so every worker,
/// strategy and trace mode collapses identically.  Chains terminate because
/// every chain step strictly increases the acting thread's pc (the ample
/// proviso) and touches no other thread's pc.
std::optional<lang::ThreadId> chain_thread(const TransitionSystem& ts,
                                           const Config& cfg) {
  const auto t = ts.ample_thread(cfg);
  if (!t) return std::nullopt;
  switch (ts.system().code(*t)[cfg.pc[*t]].kind) {
    case lang::IKind::Assign:
    case lang::IKind::Branch:
    case lang::IKind::Jump:
      return t;
    default:
      return std::nullopt;
  }
}

/// Fast-forwards `cfg` through its deterministic local ample chain without
/// recording the intermediate states; bumps `chained` once per skipped step.
/// Each chain step is swapped in, not moved, so both `cfg` (usually a pooled
/// slot) and `buf` keep their capacity.
void collapse_untraced(const TransitionSystem& ts, Config& cfg,
                       StepBuffer& buf, std::uint64_t& chained) {
  while (const auto t = chain_thread(ts, cfg)) {
    ts.thread_successors_into(cfg, *t, buf, /*want_labels=*/false);
    std::swap(cfg, buf.steps()[0].after);
    chained += 1;
  }
}

/// Interns `step`'s target into the trace sink and, under chain collapse,
/// every state of its deterministic local chain, each as a real single-step
/// edge (so path_to / witness replay see ordinary transitions), leaving
/// `step.after` at the chain's stable end.  Returns the chain end's sink id
/// and whether the sink had never seen it.  A label is consumed only when
/// the sink inserts its state: a duplicate leaves it, and its capacity, in
/// the pooled slot.
///
/// Under Sink membership the walk stops at the first already-interned state
/// and the successor is dropped (returns nullopt): whichever expansion
/// interned that state first also interned and enqueued the same
/// deterministic suffix.  Chain-internal states are never enqueued — a
/// checkpoint must not resurrect them as frontier work — so only the
/// chain's stable end is marked enqueued.  Under Masked membership the walk
/// goes *through* interned states with enqueued=false, because the chain
/// end's mask meet in the masked set must happen even when the concrete
/// chain was walked before; process_steps marks the end enqueued when it
/// wins the masked set.  A chain step counts in por_chained when the walk
/// takes it.
std::optional<ShardedVisitedSet::TracedInsert> intern_traced(
    const Run& run, Worker& w, std::uint64_t parent, lang::Step& step,
    bool count_stats) {
  const bool sink_decides = run.membership == Membership::Sink;
  Config& after = step.after;
  memsem::ThreadId acting = step.thread;
  std::string* label = &step.label;
  for (bool chain_step = false;; chain_step = true) {
    const auto next =
        run.collapse ? chain_thread(run.ts, after) : std::nullopt;
    w.scratch.clear();
    after.encode_into(w.scratch);
    const auto ins =
        sink_decides
            ? run.trace->insert_traced(w.scratch, parent, acting,
                                       std::move(*label),
                                       /*enqueued=*/!next.has_value())
            : run.trace->resolve_traced(w.scratch, parent, acting,
                                        std::move(*label), /*enqueued=*/false);
    if (sink_decides && !ins.inserted) return std::nullopt;
    if (chain_step && count_stats) w.stats.por_chained += 1;
    if (!next) return ins;
    run.ts.thread_successors_into(after, *next, w.chain_steps,
                                  /*want_labels=*/true);
    lang::Step& cstep = w.chain_steps.steps()[0];
    std::swap(after, cstep.after);
    parent = ins.id;
    acting = cstep.thread;
    label = &cstep.label;
  }
}

// --- successor processing ----------------------------------------------------

/// Decides, for every step in `w.steps` (the expansion of `item`), whether
/// its target is new, and hands each new one — or each masked revisit — to
/// `push`.  Membership is the run's (see Membership).  `count_stats` is
/// false on mask-shrink revisits, which count no chain steps, sleep skips
/// or rf merges.
///
/// Sleep-set bookkeeping (Godefroid, adapted to thread-level masks over
/// meta-homogeneous runs — a thread's enabled steps at one configuration
/// all come from one instruction, so they share one footprint): a sleeping
/// thread's whole run is skipped; the child of run t inherits every thread
/// of (sleep ∪ earlier-processed-runs) \ {t} that commutes with t.  Masks
/// attached to abstract states must be closed under the state's
/// automorphisms, hence the mask_to_abstract intersection over all
/// permutations the key reports — and a forced empty mask when the key's
/// permutation set may be incomplete (AbstractKey::complete false).
/// Abstractions that keep concrete thread coordinates (Concrete, RfQuotient)
/// report no permutations, so both transports are the identity there.
/// Expansion uses the *stored* abstract mask pulled back through the first
/// reported permutation, never the larger concrete child mask: the stored
/// mask is what later arrivals are judged against.  DESIGN.md (symmetry +
/// sleep section) gives the full argument.
template <typename Push>
void process_steps(const Run& run, Worker& w, const Frontier& item,
                   bool count_stats, Push&& push) {
  const std::span<lang::Step> steps = w.steps.steps();
  const StateAbstraction& abs = *w.abs;
  std::uint64_t mask = 0;
  if (run.sleep) {
    std::uint64_t enabled = 0;
    for (const auto& step : steps) {
      if ((enabled >> step.thread & 1ULL) == 0) {
        w.meta[step.thread] = step.meta;
        enabled |= 1ULL << step.thread;
      }
    }
    // A sleep entry stands for a specific postponed step; a sleeping thread
    // with no enabled run here has nothing to postpone and is dropped.
    mask = item.sleep & enabled;
  }
  std::uint64_t earlier = 0;
  std::size_t i = 0;
  while (i < steps.size()) {
    const ThreadId t = steps[i].thread;
    std::size_t j = i;
    while (j < steps.size() && steps[j].thread == t) ++j;
    if (run.sleep && (mask >> t & 1ULL) != 0) {
      // The run is asleep: a commuted exploration order covers it.
      if (count_stats) w.stats.sleep_set_skips += j - i;
      i = j;
      continue;
    }
    std::uint64_t child_sleep = 0;
    if (run.sleep) {
      std::uint64_t base = (mask | earlier) & ~(1ULL << t);
      while (base != 0) {
        const auto u = static_cast<unsigned>(std::countr_zero(base));
        base &= base - 1;
        if (steps_independent(w.meta[u], w.meta[t])) {
          child_sleep |= 1ULL << u;
        }
      }
      earlier |= 1ULL << t;
    }
    for (std::size_t k = i; k < j; ++k) {
      lang::Step& step = steps[k];
      // Keyed and interned in its pooled slot; moved out only to enter the
      // frontier, so a duplicate leaves the slot's capacity for the refill.
      Config& after = step.after;
      std::uint64_t id = ShardedVisitedSet::kNoState;
      bool concrete_new = false;
      if (run.trace != nullptr) {
        const auto ins = intern_traced(run, w, item.id, step, count_stats);
        if (!ins) continue;
        id = ins->id;
        concrete_new = ins->inserted;
        if (run.membership == Membership::Sink) {
          push(Frontier{std::move(after), id});
          continue;
        }
      } else if (run.collapse) {
        std::uint64_t walked = 0;
        collapse_untraced(run.ts, after, w.chain_steps, walked);
        if (count_stats) w.stats.por_chained += walked;
      }
      abs.key(after, w.key);
      if (run.membership == Membership::Plain) {
        if (run.visited.insert(w.key.encoding)) {
          push(Frontier{std::move(after), ShardedVisitedSet::kNoState});
        }
        continue;
      }
      std::uint64_t cmask = 0;
      if (run.sleep) {
        cmask = w.key.complete ? mask_to_abstract(child_sleep, w.key) : 0;
      }
      const auto r = run.visited.insert_masked(w.key.encoding, cmask);
      if (!r.inserted) {
        if (abs.kind() == StateAbstraction::Kind::Symmetry &&
            !key_is_identity(w.key)) {
          w.stats.symmetry_hits += 1;
        } else if (abs.kind() == StateAbstraction::Kind::RfQuotient &&
                   count_stats && concrete_new) {
          // A concrete state the sink had never seen folded into a visited
          // quotient class.  Only a trace sink can tell a genuinely new
          // concrete state from a re-arrival, so untraced runs report 0.
          w.stats.rf_merges += 1;
        }
      }
      if (!r.inserted && !r.expand) continue;
      std::uint64_t fmask = 0;
      if (run.sleep) fmask = mask_from_abstract(r.mask, w.key);
      if (run.trace != nullptr && r.inserted) run.trace->mark_enqueued(id);
      push(Frontier{std::move(after), id, fmask, /*revisit=*/!r.inserted});
    }
    i = j;
  }
}

// --- the driver --------------------------------------------------------------

/// The shared frontier.  A single deque behind one mutex is deliberately
/// simple: state *expansion* (successor computation + canonical encoding)
/// dominates queue traffic by orders of magnitude, and a pool's workers
/// pop in batches, so the lock is cold.  The visited set, where every
/// generated successor lands, is the contended structure — and that one is
/// sharded (see sharded_visited.hpp).
struct SharedFrontier {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frontier> items;
  unsigned working = 0;  ///< workers currently expanding a batch
  bool stop = false;     ///< cooperative stop (visitor veto or budget)
};

/// The most items a worker of a multi-worker pool takes per turn.
constexpr std::size_t kMaxBatch = 32;

/// Shards of the run's own set in a multi-worker pool (one otherwise).
constexpr unsigned kPoolShards = 64;

void add_stats(ExploreStats& total, const ExploreStats& part) {
  total.states += part.states;
  total.transitions += part.transitions;
  total.finals += part.finals;
  total.blocked += part.blocked;
  total.peak_frontier = std::max(total.peak_frontier, part.peak_frontier);
  total.por_reduced += part.por_reduced;
  total.por_chained += part.por_chained;
  total.symmetry_hits += part.symmetry_hits;
  total.sleep_set_skips += part.sleep_set_skips;
  total.rf_merges += part.rf_merges;
}

ReachResult reach(const TransitionSystem& ts, const ReachOptions& options,
                  const StateVisitor& visitor, unsigned num_workers) {
  const System& sys = ts.system();
  const bool sleep =
      (options.symmetry || options.rf_quotient) && sys.num_threads() <= 64;
  // Abstract keys are a pure function of the system, so every worker's
  // clone agrees with worker 0's instance, which also seeds the run.
  std::vector<Worker> workers(num_workers);
  workers[0].abs = make_abstraction(sys, options);
  for (unsigned w = 1; w < num_workers; ++w) {
    workers[w].abs = workers[0].abs->clone();
  }
  const bool identity =
      !sleep && workers[0].abs->kind() == StateAbstraction::Kind::Concrete;
  // A one-worker run's set is a single shard, byte for byte the interned
  // word set it wraps.
  ShardedVisitedSet visited(num_workers == 1 ? 1 : kPoolShards);
  const Run run{ts,
                options.trace,
                visited,
                !identity                 ? Membership::Masked
                : options.trace != nullptr ? Membership::Sink
                                           : Membership::Plain,
                options.por && ts.collapse_chains(),
                sleep};
  const bool want_labels = options.want_labels || options.trace != nullptr;
  // Only the sets the run uses count: an empty set still owns its table.
  const auto visited_bytes = [&]() -> std::uint64_t {
    std::uint64_t b = run.membership == Membership::Sink ? 0 : visited.bytes();
    if (run.trace != nullptr) b += run.trace->bytes();
    return b;
  };
  // Every popped state claims one index from the budget enforcer; claims
  // beyond a limit mark the stop reason instead of being expanded.
  BudgetEnforcer enforcer(options, options.cancel, options.fault,
                          visited_bytes);

  const auto seed = [&](const Config& cfg) {
    if (run.membership == Membership::Sink) return;
    Worker& w = workers[0];
    w.abs->key(cfg, w.key);
    if (run.membership == Membership::Plain) {
      visited.insert(w.key.encoding);
    } else {
      visited.insert_masked(w.key.encoding, 0);
    }
  };
  SharedFrontier frontier;
  if (options.resume != nullptr) {
    seed_from_checkpoint(ts, *options.resume, run.trace, seed, frontier.items);
  } else {
    Config init = ts.initial();
    std::uint64_t id = ShardedVisitedSet::kNoState;
    if (run.trace != nullptr) {
      id = run.trace
               ->insert_traced(init.encode(), ShardedVisitedSet::kNoState, 0,
                               "init")
               .id;
    }
    seed(init);
    frontier.items.push_back({std::move(init), id});
  }

  const bool bfs = options.strategy == SearchStrategy::Bfs;
  // One worker takes one item per turn, so it expands in exact DFS (BFS)
  // order — the order --json's peak_frontier and reduction counters pin.
  // A pool's worker takes at most a 1/workers share, leaving work for idle
  // peers.
  const std::size_t max_batch = num_workers == 1 ? 1 : kMaxBatch;

  const auto work = [&](Worker& w) {
    for (;;) {
      w.batch.clear();
      std::size_t size_at_pop = 0;  // frontier size before the batch's pops
      {
        std::unique_lock<std::mutex> lock(frontier.mu);
        frontier.cv.wait(lock, [&] {
          return frontier.stop || !frontier.items.empty() ||
                 frontier.working == 0;
        });
        if (frontier.stop || (frontier.items.empty() && frontier.working == 0)) {
          frontier.cv.notify_all();
          return;
        }
        size_at_pop = frontier.items.size();
        const std::size_t take = std::min(
            max_batch, std::max<std::size_t>(1, size_at_pop / num_workers));
        for (std::size_t i = 0; i < take; ++i) {
          if (bfs) {
            w.batch.push_back(std::move(frontier.items.front()));
            frontier.items.pop_front();
          } else {
            w.batch.push_back(std::move(frontier.items.back()));
            frontier.items.pop_back();
          }
        }
        frontier.working += 1;
      }

      w.discovered.clear();
      const auto push = [&](Frontier&& f) {
        w.discovered.push_back(std::move(f));
      };
      bool request_stop = false;
      for (std::size_t i = 0; i < w.batch.size(); ++i) {
        const Frontier& item = w.batch[i];
        // A mask-shrink revisit regenerates the same successor set
        // (expansion is a pure function of the configuration) and
        // reprocesses it with the smaller mask: no state claim, no stats,
        // no visitor — the state was already visited once.
        if ((item.revisit ? enforcer.probe() : enforcer.claim()) !=
            StopReason::Complete) {
          // The rest of the batch is dropped unexpanded; it stays
          // recoverable through a checkpoint (interned and marked enqueued,
          // and resume re-expands every enqueued state).
          request_stop = true;
          break;
        }
        w.stats.peak_frontier =
            std::max<std::uint64_t>(w.stats.peak_frontier, size_at_pop - i);
        const Config& cfg = item.cfg;
        const bool ample = expand_steps(ts, cfg, options, w.steps, want_labels);
        bool keep_going = true;
        if (!item.revisit) {
          w.stats.states += 1;
          if (ample) w.stats.por_reduced += 1;
          if (w.steps.empty()) {
            (cfg.all_done(sys) ? w.stats.finals : w.stats.blocked) += 1;
          }
          w.stats.transitions += w.steps.size();
          keep_going = visitor(cfg, item.id, w.steps.steps());
        }
        process_steps(run, w, item, /*count_stats=*/!item.revisit, push);
        if (!keep_going) {
          request_stop = true;
          break;
        }
      }

      {
        std::lock_guard<std::mutex> lock(frontier.mu);
        frontier.working -= 1;
        if (request_stop) frontier.stop = true;
        for (auto& item : w.discovered) {
          frontier.items.push_back(std::move(item));
        }
      }
      frontier.cv.notify_all();
    }
  };

  // The calling thread is worker 0; a one-worker run starts no thread.
  std::vector<std::thread> pool;
  pool.reserve(num_workers - 1);
  for (unsigned w = 1; w < num_workers; ++w) {
    pool.emplace_back(work, std::ref(workers[w]));
  }
  work(workers[0]);
  for (auto& t : pool) t.join();

  ReachResult result;
  for (const Worker& w : workers) add_stats(result.stats, w.stats);
  result.stats.visited_bytes = visited_bytes();
  result.stop = enforcer.reason();
  return result;
}

}  // namespace

bool expand_steps(const TransitionSystem& ts, const Config& cfg,
                  const ReachOptions& options, StepBuffer& out,
                  bool want_labels) {
  if (options.por) {
    if (const auto t = ts.ample_thread(cfg)) {
      ts.thread_successors_into(cfg, *t, out, want_labels);
      // An empty ample set (the eligible thread's step turned out disabled)
      // must not hide the other threads' steps: fall through to full
      // expansion.  Cannot happen for the current eligibility rule (local
      // steps are always enabled), but stays sound if it ever widens.
      if (!out.empty()) return true;
    }
  }
  ts.successors_into(cfg, out, want_labels);
  return false;
}

ReachResult visit_reachable(const TransitionSystem& ts,
                            const ReachOptions& options,
                            const StateVisitor& visitor) {
  const std::string conflict = reduction_conflict(
      options, !options.checkpoint_path.empty(), options.resume != nullptr,
      options.resume != nullptr ? &options.resume->reduction : nullptr,
      ts.system().options().model == memsem::MemoryModel::SC);
  support::require(conflict.empty(), conflict);
  if (options.mode == Strategy::Sample) {
    return sample_reach(ts, options, visitor);
  }
  RC11_REQUIRE(options.checkpoint_path.empty() || options.trace != nullptr,
               "a checkpointed run needs a trace sink");
  const ReachResult result =
      reach(ts, options, visitor,
            support::resolve_num_threads(options.num_threads));
  if (!options.checkpoint_path.empty() && result.stop != StopReason::Complete) {
    save_checkpoint(
        make_checkpoint(*options.trace, result.stats, result.stop, options),
        options.checkpoint_path);
  }
  return result;
}

ReachResult visit_reachable(const System& sys, const ReachOptions& options,
                            const StateVisitor& visitor) {
  const TransitionSystem ts(sys);
  return visit_reachable(ts, options, visitor);
}

}  // namespace rc11::engine
