#include "engine/reach.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/checkpoint.hpp"
#include "support/diagnostics.hpp"
#include "support/intern.hpp"
#include "support/parallel.hpp"

namespace rc11::engine {

namespace {

/// Sequential visited set: one interned word set (open-addressing
/// fingerprint table over a varint arena — see support/intern.hpp), kept
/// lock-free for the num_threads == 1 paths.  Exact for the same reason as
/// ShardedVisitedSet: fingerprint hits are confirmed against the full
/// stored encoding.
using VisitedSet = support::InternedWordSet;

/// A frontier entry: the configuration plus its id in the trace sink (the
/// id stays kNoState when no sink is attached).
struct Frontier {
  Config cfg;
  std::uint64_t id = ShardedVisitedSet::kNoState;
  /// Sleeping-thread mask in this configuration's concrete thread
  /// coordinates (reduction paths only; 0 otherwise).
  std::uint64_t sleep = 0;
  /// Re-expansion of an already-visited state whose stored sleep mask
  /// strictly shrank (Godefroid's revisit rule): successors are reprocessed
  /// with the smaller mask, but the state is not re-counted, the visitor
  /// does not fire again, and no state claim is consumed.
  bool revisit = false;
};

/// Sequential counterpart of ShardedVisitedSet::insert_masked: one interned
/// word set plus a dense per-id mask array, lock-free for the single-thread
/// driver.  Same meet semantics, so both drivers share the revisit rule
/// documented on MaskedInsert.  With all-zero masks this is an exact
/// insert() with ids — the degenerate form the symmetry quotient uses when
/// sleep sets are off.
class SeqMaskedSet {
 public:
  ShardedVisitedSet::MaskedInsert insert_masked(
      std::span<const std::uint64_t> encoding, std::uint64_t mask) {
    const auto ided = set_.resolve_ided(encoding);
    if (ided.inserted) {
      masks_.push_back(mask);
      return {true, true, mask};
    }
    std::uint64_t& stored = masks_[ided.id];
    const std::uint64_t meet = stored & mask;
    if (meet == stored) return {false, false, stored};
    stored = meet;
    return {false, true, meet};
  }

  [[nodiscard]] std::size_t bytes() const noexcept {
    return set_.bytes() + masks_.capacity() * sizeof(std::uint64_t);
  }

 private:
  support::InternedWordSet set_;
  std::vector<std::uint64_t> masks_;
};

/// Builds the run's state abstraction from the reduction options: the
/// symmetry orbit quotient, the execution-graph quotient, or — when neither
/// applies but the sleep-set path still needs masked keying — the concrete
/// identity abstraction.  Returns null when no reduced path is needed at
/// all.  visit_reachable has already rejected symmetry+rf_quotient.
std::unique_ptr<StateAbstraction> make_abstraction(const System& sys,
                                                   const ReachOptions& options,
                                                   bool sleep) {
  if (options.symmetry) {
    auto abs = make_symmetry_abstraction(sys);
    if (abs->nontrivial()) return abs;
    // No interchangeable threads: the orbit quotient is the identity, so
    // fall through to the cheaper paths.
  } else if (options.rf_quotient) {
    return make_rf_quotient_abstraction(sys, options.rf_pins);
  }
  if (sleep) return make_concrete_abstraction();
  return nullptr;
}

/// Seeds a run from a checkpoint (ReachOptions::resume): every checkpointed
/// state enters the trace sink when one is attached (with its recorded
/// parent link and enqueued flag, so a later checkpoint of the resumed run
/// is still faithful), and every *enqueued* state goes on the frontier for
/// (re-)expansion.  Chain-internal POR states are interned but never
/// enqueued, exactly as the original run left them.  The two callbacks
/// adapt the visited-set shape per driver mode: `untraced(encoding)` seeds
/// the plain untraced set (a no-op in reduced modes, whose visited set is
/// the masked canonical one), `canon_seed(cfg)` seeds the canonical set
/// (a no-op in plain modes).  Canonical masks restart empty: resume
/// re-expands every enqueued state anyway, and the empty mask skips nothing
/// — sound, only pruning is lost.
template <typename UntracedInsert, typename CanonSeed>
void seed_from_checkpoint(const TransitionSystem& ts, const Checkpoint& ckpt,
                          ShardedVisitedSet* trace, UntracedInsert&& untraced,
                          CanonSeed&& canon_seed,
                          std::deque<Frontier>& frontier) {
  std::vector<Config> configs = restore_states(ts, ckpt);
  std::vector<std::uint64_t> ids;
  if (trace != nullptr) {
    ids.assign(configs.size(), ShardedVisitedSet::kNoState);
  }
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
      if (state.enqueued) {
        canon_seed(configs[i]);
        frontier.push_back({std::move(configs[i]), ins.id});
      }
    } else if (state.enqueued) {
      // Untraced runs never intern chain-internal states; seeding only the
      // enqueued ones reproduces an uninterrupted untraced visited set.
      untraced(std::span<const std::uint64_t>(state.encoding));
      canon_seed(configs[i]);
      frontier.push_back({std::move(configs[i]), ShardedVisitedSet::kNoState});
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

/// Traced variant: interns every intermediate chain state into the sink as a
/// real single-step edge (so path_to / witness replay see ordinary
/// transitions) and advances `cfg` / `id` to the chain's stable end.
/// Returns false when an intermediate state was already interned — whichever
/// expansion interned it first also interned and enqueued the same
/// deterministic suffix, so the caller drops this duplicate branch.
bool collapse_traced(const TransitionSystem& ts, ShardedVisitedSet& sink,
                     Config& cfg, std::uint64_t& id, StepBuffer& buf,
                     std::vector<std::uint64_t>& scratch,
                     std::uint64_t& chained) {
  auto t = chain_thread(ts, cfg);
  while (t) {
    ts.thread_successors_into(cfg, *t, buf, /*want_labels=*/true);
    auto& step = buf.steps()[0];
    // Chain-internal states are interned (witnesses need the edges) but
    // never enqueued — a checkpoint must not resurrect them as frontier
    // work.  Only the chain's stable end, which the caller pushes onto the
    // frontier, is marked enqueued.
    const auto next = chain_thread(ts, step.after);
    scratch.clear();
    step.after.encode_into(scratch);
    const auto ins =
        sink.insert_traced(scratch, id, step.thread, std::move(step.label),
                           /*enqueued=*/!next.has_value());
    if (!ins.inserted) return false;
    id = ins.id;
    std::swap(cfg, step.after);
    chained += 1;
    t = next;
  }
  return true;
}

// --- reduction successor path ------------------------------------------------

/// Per-worker scratch for the reduction successor path: chain-walk step
/// buffer, encoding buffer, abstract-key result, and the per-thread run
/// metadata of the expansion in flight (valid only under sleep sets, which
/// require <= 64 threads).
struct ReduceScratch {
  lang::StepBuffer chain_steps;
  std::vector<std::uint64_t> scratch;
  AbstractKey key;
  std::array<lang::StepMeta, 64> meta{};
};

/// The successor-processing path both drivers share when any reduction —
/// a state abstraction (symmetry orbit or execution-graph quotient) and/or
/// sleep sets — is active.  Differences from the plain path:
///
///   * Membership is decided in `canon_set` (SeqMaskedSet sequentially, a
///     dedicated ShardedVisitedSet in parallel), keyed by the abstraction's
///     abstract key (the concrete encoding for the identity abstraction of
///     the sleep-only path), with per-state sleep masks (all zero when
///     sleep sets are off).
///   * With a trace sink, every concrete successor is interned with
///     enqueued=false via resolve_traced, and the *canonical-set winner*
///     flips the flag via mark_enqueued: the expansion race between orbit
///     mates is decided in the canonical set, while the sink stays a
///     faithful forest of really-taken steps (witnesses and checkpoints are
///     concrete, so replay needs no permutation arithmetic).
///   * Traced chain collapse walks *through* already-interned intermediates
///     instead of early-dropping: under sleep sets the chain end's canonical
///     mask meet must happen even when the concrete chain was walked before.
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
template <typename CanonSet, typename Push>
void process_steps_reduced(const TransitionSystem& ts, ShardedVisitedSet* trace,
                           bool collapse, const StateAbstraction& abs,
                           bool sleep, const Frontier& item,
                           std::span<lang::Step> steps, CanonSet& canon_set,
                           ReduceScratch& rs, bool count_stats,
                           std::uint64_t& chained, std::uint64_t& sym_hits,
                           std::uint64_t& rf_merges, std::uint64_t& sleep_skips,
                           Push&& push) {
  std::uint64_t mask = 0;
  if (sleep) {
    std::uint64_t enabled = 0;
    for (const auto& step : steps) {
      if ((enabled >> step.thread & 1ULL) == 0) {
        rs.meta[step.thread] = step.meta;
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
    if (sleep && (mask >> t & 1ULL) != 0) {
      // The run is asleep: a commuted exploration order covers it.
      if (count_stats) sleep_skips += j - i;
      i = j;
      continue;
    }
    std::uint64_t child_sleep = 0;
    if (sleep) {
      std::uint64_t base = (mask | earlier) & ~(1ULL << t);
      while (base != 0) {
        const auto u = static_cast<unsigned>(std::countr_zero(base));
        base &= base - 1;
        if (steps_independent(rs.meta[u], rs.meta[t])) {
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
      std::uint64_t concrete_id = ShardedVisitedSet::kNoState;
      bool concrete_new = false;
      if (trace != nullptr) {
        std::uint64_t parent = item.id;
        memsem::ThreadId acting = step.thread;
        std::string label = std::move(step.label);
        if (collapse) {
          while (const auto ct = chain_thread(ts, after)) {
            rs.scratch.clear();
            after.encode_into(rs.scratch);
            parent = trace
                         ->resolve_traced(rs.scratch, parent, acting,
                                          std::move(label), /*enqueued=*/false)
                         .id;
            if (count_stats) chained += 1;
            ts.thread_successors_into(after, *ct, rs.chain_steps,
                                      /*want_labels=*/true);
            auto& cstep = rs.chain_steps.steps()[0];
            std::swap(after, cstep.after);
            acting = cstep.thread;
            label = std::move(cstep.label);
          }
        }
        rs.scratch.clear();
        after.encode_into(rs.scratch);
        const auto cins = trace->resolve_traced(
            rs.scratch, parent, acting, std::move(label), /*enqueued=*/false);
        concrete_id = cins.id;
        concrete_new = cins.inserted;
      } else if (collapse) {
        std::uint64_t walked = 0;
        collapse_untraced(ts, after, rs.chain_steps, walked);
        if (count_stats) chained += walked;
      }
      abs.key(after, rs.key);
      std::uint64_t cmask = 0;
      if (sleep) {
        cmask = rs.key.complete ? mask_to_abstract(child_sleep, rs.key) : 0;
      }
      const auto r = canon_set.insert_masked(rs.key.encoding, cmask);
      if (!r.inserted) {
        if (abs.kind() == StateAbstraction::Kind::Symmetry &&
            !key_is_identity(rs.key)) {
          sym_hits += 1;
        } else if (abs.kind() == StateAbstraction::Kind::RfQuotient &&
                   count_stats && concrete_new) {
          // A concrete state the sink had never seen folded into a visited
          // quotient class.  Only a trace sink can tell a genuinely new
          // concrete state from a re-arrival, so untraced runs report 0.
          rf_merges += 1;
        }
      }
      if (!r.inserted && !r.expand) continue;
      std::uint64_t fmask = 0;
      if (sleep) fmask = mask_from_abstract(r.mask, rs.key);
      if (trace != nullptr && r.inserted) trace->mark_enqueued(concrete_id);
      push(Frontier{std::move(after), concrete_id, fmask,
                    /*revisit=*/!r.inserted});
    }
    i = j;
  }
}

// --- parallel reachability engine -------------------------------------------

/// Shared frontier of the worker pool.  A single deque behind one mutex is
/// deliberately simple: state *expansion* (successor computation + canonical
/// encoding) dominates queue traffic by orders of magnitude, and workers pop
/// and push in batches, so the lock is cold.  The visited set, where every
/// generated successor lands, is the contended structure — and that one is
/// sharded (see sharded_visited.hpp).
struct SharedFrontier {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frontier> items;
  unsigned working = 0;  ///< workers currently expanding a batch
  bool stop = false;     ///< cooperative stop (visitor veto or truncation)
  std::uint64_t max_size = 0;
};

ReachResult parallel_reach(const TransitionSystem& ts,
                           const ReachOptions& options,
                           const StateVisitor& visitor, unsigned workers) {
  const System& sys = ts.system();
  ReachResult result;
  ShardedVisitedSet local_visited;
  // With a trace sink the sink doubles as the visited set, so parent
  // recording and the once-only insert decision are one atomic step.
  ShardedVisitedSet& visited = options.trace ? *options.trace : local_visited;
  const bool want_labels = options.want_labels || options.trace != nullptr;
  const bool collapse = options.por && ts.collapse_chains();
  // Reduction configuration.  Abstract keys are a pure function of the
  // system, so the driver-level abstraction (used for seeding) and its
  // per-worker clones (key() reuses mutable scratch, so one instance per
  // worker) always agree.
  const bool sleep = options.sleep_sets && sys.num_threads() <= 64;
  const std::unique_ptr<StateAbstraction> seed_abs =
      make_abstraction(sys, options, sleep);
  const bool reduced = seed_abs != nullptr;
  // The reduced paths' visited set: canonical orbit encodings (or masked
  // concrete ones under sleep-only) with per-state sleep masks.  Doubles as
  // *the* visited set in untraced reduced runs; traced runs keep the sink
  // concrete and use this as the expansion-ownership side set.
  ShardedVisitedSet canon_shared;
  SharedFrontier frontier;
  // Every popped state claims one index from the budget enforcer; claims
  // beyond a limit mark the stop reason instead of being expanded.  This is
  // the cooperative-parallel analogue of the sequential pre-pop bound check.
  BudgetEnforcer enforcer(options.budget, options.cancel, options.fault,
                          [&]() -> std::uint64_t {
                            std::uint64_t b =
                                reduced ? canon_shared.bytes() : 0;
                            if (options.trace != nullptr || !reduced) {
                              b += visited.bytes();
                            }
                            return b;
                          });
  std::atomic<std::uint64_t> states{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> finals{0};
  std::atomic<std::uint64_t> blocked{0};
  std::atomic<std::uint64_t> por_reduced{0};
  std::atomic<std::uint64_t> por_chained{0};
  std::atomic<std::uint64_t> symmetry_hits{0};
  std::atomic<std::uint64_t> rf_merges{0};
  std::atomic<std::uint64_t> sleep_skips{0};

  AbstractKey seed_key;
  const auto canon_seed = [&](const Config& cfg) {
    if (!reduced) return;
    seed_abs->key(cfg, seed_key);
    canon_shared.insert_masked(seed_key.encoding, 0);
  };

  if (options.resume != nullptr) {
    seed_from_checkpoint(
        ts, *options.resume, options.trace,
        [&](std::span<const std::uint64_t> enc) {
          if (!reduced) visited.insert(enc);
        },
        canon_seed, frontier.items);
    frontier.max_size = frontier.items.size();
  } else {
    Config init = ts.initial();
    std::uint64_t id = ShardedVisitedSet::kNoState;
    if (options.trace) {
      id = options.trace
               ->insert_traced(init.encode(), ShardedVisitedSet::kNoState, 0,
                               "init")
               .id;
    } else if (!reduced) {
      visited.insert(init.encode());
    }
    canon_seed(init);
    frontier.items.push_back({std::move(init), id});
    frontier.max_size = 1;
  }

  const bool bfs = options.strategy == SearchStrategy::Bfs;
  constexpr std::size_t kMaxBatch = 32;

  const auto worker = [&] {
    std::vector<Frontier> batch;
    std::vector<Frontier> discovered;
    lang::StepBuffer steps;                // pooled successor storage
    lang::StepBuffer chain_steps;          // separate pool for chain collapse
    std::vector<std::uint64_t> scratch;    // reusable encoding buffer
    std::uint64_t chained = 0;             // batched into por_chained below
    std::unique_ptr<StateAbstraction> wabs;
    if (reduced) wabs = seed_abs->clone();
    ReduceScratch rs;
    std::uint64_t local_sym = 0;    // batched into symmetry_hits below
    std::uint64_t local_rf = 0;     // batched into rf_merges below
    std::uint64_t local_skips = 0;  // batched into sleep_skips below
    for (;;) {
      batch.clear();
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
        // Leave work for idle peers: take at most a 1/workers share.
        const std::size_t take = std::min(
            kMaxBatch,
            std::max<std::size_t>(1, frontier.items.size() / workers));
        for (std::size_t i = 0; i < take && !frontier.items.empty(); ++i) {
          if (bfs) {
            batch.push_back(std::move(frontier.items.front()));
            frontier.items.pop_front();
          } else {
            batch.push_back(std::move(frontier.items.back()));
            frontier.items.pop_back();
          }
        }
        frontier.working += 1;
      }

      discovered.clear();
      bool request_stop = false;
      for (const Frontier& item : batch) {
        const Config& cfg = item.cfg;
        if (item.revisit) {
          // Mask-shrink revisit: regenerate the same successor set
          // (expansion is a pure function of the configuration) and
          // reprocess it with the smaller mask.  No state claim, no stats,
          // no visitor — the state was already visited once.
          if (enforcer.probe() != StopReason::Complete) {
            request_stop = true;
            break;
          }
          (void)expand_steps(ts, cfg, options, steps, want_labels);
          process_steps_reduced(
              ts, options.trace, collapse, *wabs, sleep, item, steps.steps(),
              canon_shared, rs, /*count_stats=*/false, chained, local_sym,
              local_rf, local_skips,
              [&](Frontier&& f) { discovered.push_back(std::move(f)); });
          continue;
        }
        if (enforcer.claim() != StopReason::Complete) {
          // Remaining batch items are dropped without being expanded; they
          // stay recoverable through a checkpoint (they are interned and
          // marked enqueued, and resume re-expands every enqueued state).
          request_stop = true;
          break;
        }
        states.fetch_add(1, std::memory_order_relaxed);
        if (expand_steps(ts, cfg, options, steps, want_labels)) {
          por_reduced.fetch_add(1, std::memory_order_relaxed);
        }
        if (steps.empty()) {
          (cfg.all_done(sys) ? finals : blocked)
              .fetch_add(1, std::memory_order_relaxed);
        }
        transitions.fetch_add(steps.size(), std::memory_order_relaxed);
        const bool keep_going = visitor(cfg, item.id, steps.steps());
        if (reduced) {
          process_steps_reduced(
              ts, options.trace, collapse, *wabs, sleep, item, steps.steps(),
              canon_shared, rs, /*count_stats=*/true, chained, local_sym,
              local_rf, local_skips,
              [&](Frontier&& f) { discovered.push_back(std::move(f)); });
        } else {
          for (auto& step : steps.steps()) {
            // Interned in its pooled slot; moved out only when new (see the
            // sequential driver).
            Config& after = step.after;
            if (options.trace) {
              // A successor that opens a deterministic chain is itself
              // chain-internal: collapse will fast-forward through it and
              // enqueue the chain's end instead.
              const bool chain_start =
                  collapse && chain_thread(ts, after).has_value();
              scratch.clear();
              after.encode_into(scratch);
              const auto ins = options.trace->insert_traced(
                  scratch, item.id, step.thread, std::move(step.label),
                  /*enqueued=*/!chain_start);
              if (!ins.inserted) continue;
              std::uint64_t id = ins.id;
              if (collapse &&
                  !collapse_traced(ts, *options.trace, after, id, chain_steps,
                                   scratch, chained)) {
                continue;
              }
              discovered.push_back({std::move(after), id});
            } else {
              if (collapse) collapse_untraced(ts, after, chain_steps, chained);
              scratch.clear();
              after.encode_into(scratch);
              if (visited.insert(scratch)) {
                discovered.push_back({std::move(after), ShardedVisitedSet::kNoState});
              }
            }
          }
        }
        if (!keep_going) {
          request_stop = true;
          break;
        }
      }
      if (chained != 0) {
        por_chained.fetch_add(chained, std::memory_order_relaxed);
        chained = 0;
      }
      if (local_sym != 0) {
        symmetry_hits.fetch_add(local_sym, std::memory_order_relaxed);
        local_sym = 0;
      }
      if (local_rf != 0) {
        rf_merges.fetch_add(local_rf, std::memory_order_relaxed);
        local_rf = 0;
      }
      if (local_skips != 0) {
        sleep_skips.fetch_add(local_skips, std::memory_order_relaxed);
        local_skips = 0;
      }

      {
        std::lock_guard<std::mutex> lock(frontier.mu);
        frontier.working -= 1;
        if (request_stop) frontier.stop = true;
        for (auto& item : discovered) {
          frontier.items.push_back(std::move(item));
        }
        frontier.max_size =
            std::max<std::uint64_t>(frontier.max_size, frontier.items.size());
      }
      frontier.cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  result.stats.states = states.load();
  result.stats.transitions = transitions.load();
  result.stats.finals = finals.load();
  result.stats.blocked = blocked.load();
  result.stats.peak_frontier = frontier.max_size;
  result.stats.visited_bytes = reduced ? canon_shared.bytes() : 0;
  if (options.trace != nullptr || !reduced) {
    result.stats.visited_bytes += visited.bytes();
  }
  result.stats.por_reduced = por_reduced.load();
  result.stats.por_chained = por_chained.load();
  result.stats.symmetry_hits = symmetry_hits.load();
  result.stats.rf_merges = rf_merges.load();
  result.stats.sleep_set_skips = sleep_skips.load();
  result.stop = enforcer.reason();
  return result;
}

ReachResult sequential_reach(const TransitionSystem& ts,
                             const ReachOptions& options,
                             const StateVisitor& visitor) {
  const System& sys = ts.system();
  ReachResult result;
  // Untraced runs keep the single lock-free interned set; a trace sink
  // replaces it (insert_traced assigns ids and records parent links).
  VisitedSet visited;
  const bool want_labels = options.want_labels || options.trace != nullptr;
  const bool collapse = options.por && ts.collapse_chains();
  // Reduction configuration (mirrors parallel_reach).
  const bool sleep = options.sleep_sets && sys.num_threads() <= 64;
  const std::unique_ptr<StateAbstraction> abs =
      make_abstraction(sys, options, sleep);
  const bool reduced = abs != nullptr;
  SeqMaskedSet canon;  // the reduced paths' (masked) visited set
  ReduceScratch rs;
  BudgetEnforcer enforcer(options.budget, options.cancel, options.fault,
                          [&]() -> std::uint64_t {
                            std::uint64_t b = reduced ? canon.bytes() : 0;
                            if (options.trace) {
                              b += options.trace->bytes();
                            } else if (!reduced) {
                              b += visited.bytes();
                            }
                            return b;
                          });
  std::deque<Frontier> frontier;
  lang::StepBuffer steps;
  lang::StepBuffer chain_steps;  // separate pool: collapse runs mid-iteration
  std::vector<std::uint64_t> scratch;
  const auto canon_seed = [&](const Config& cfg) {
    if (!reduced) return;
    abs->key(cfg, rs.key);
    canon.insert_masked(rs.key.encoding, 0);
  };
  if (options.resume != nullptr) {
    seed_from_checkpoint(
        ts, *options.resume, options.trace,
        [&](std::span<const std::uint64_t> enc) {
          if (!reduced) visited.insert(enc);
        },
        canon_seed, frontier);
  } else {
    Config init = ts.initial();
    std::uint64_t id = ShardedVisitedSet::kNoState;
    if (options.trace) {
      id = options.trace
               ->insert_traced(init.encode(), ShardedVisitedSet::kNoState, 0,
                               "init")
               .id;
    } else if (!reduced) {
      visited.insert(init.encode());
    }
    canon_seed(init);
    frontier.push_back({std::move(init), id});
  }
  const bool bfs = options.strategy == SearchStrategy::Bfs;
  while (!frontier.empty()) {
    const bool revisit =
        bfs ? frontier.front().revisit : frontier.back().revisit;
    if (const StopReason gate = revisit ? enforcer.probe() : enforcer.claim();
        gate != StopReason::Complete) {
      result.stop = gate;
      break;
    }
    result.stats.peak_frontier =
        std::max<std::uint64_t>(result.stats.peak_frontier, frontier.size());
    Frontier item = bfs ? std::move(frontier.front()) : std::move(frontier.back());
    if (bfs) {
      frontier.pop_front();
    } else {
      frontier.pop_back();
    }
    const Config& cfg = item.cfg;
    bool keep_going = true;
    if (revisit) {
      // Mask-shrink revisit (see the parallel driver): same successor set,
      // smaller mask, no stats, no visitor, no state claim.
      (void)expand_steps(ts, cfg, options, steps, want_labels);
    } else {
      result.stats.states += 1;
      if (expand_steps(ts, cfg, options, steps, want_labels)) {
        result.stats.por_reduced += 1;
      }
      if (steps.empty()) {
        if (cfg.all_done(sys)) {
          result.stats.finals += 1;
        } else {
          result.stats.blocked += 1;
        }
      }
      result.stats.transitions += steps.size();
      keep_going = visitor(cfg, item.id, steps.steps());
    }
    if (reduced) {
      process_steps_reduced(
          ts, options.trace, collapse, *abs, sleep, item, steps.steps(), canon,
          rs, /*count_stats=*/!revisit, result.stats.por_chained,
          result.stats.symmetry_hits, result.stats.rf_merges,
          result.stats.sleep_set_skips,
          [&](Frontier&& f) { frontier.push_back(std::move(f)); });
    } else {
      for (auto& step : steps.steps()) {
        // Encoded and interned in its pooled slot: only a state that enters
        // the frontier is moved out, so a duplicate keeps the slot's
        // capacity and the next StepBuffer::push refills it without
        // allocating.
        Config& after = step.after;
        if (options.trace) {
          // Same chain-start rule as the parallel driver: see above.
          const bool chain_start =
              collapse && chain_thread(ts, after).has_value();
          scratch.clear();
          after.encode_into(scratch);
          const auto ins = options.trace->insert_traced(
              scratch, item.id, step.thread, std::move(step.label),
              /*enqueued=*/!chain_start);
          if (!ins.inserted) continue;
          std::uint64_t id = ins.id;
          if (collapse &&
              !collapse_traced(ts, *options.trace, after, id, chain_steps,
                               scratch, result.stats.por_chained)) {
            continue;
          }
          frontier.push_back({std::move(after), id});
        } else {
          if (collapse) {
            collapse_untraced(ts, after, chain_steps, result.stats.por_chained);
          }
          scratch.clear();
          after.encode_into(scratch);
          if (visited.insert(scratch)) {
            frontier.push_back({std::move(after), ShardedVisitedSet::kNoState});
          }
        }
      }
    }
    if (!keep_going) break;
  }
  result.stats.visited_bytes = reduced ? canon.bytes() : 0;
  if (options.trace) {
    result.stats.visited_bytes += options.trace->bytes();
  } else if (!reduced) {
    result.stats.visited_bytes += visited.bytes();
  }
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
      // expansion.  Cannot happen for the current eligibility rules (local
      // steps and plain accesses are always enabled), but stays sound if
      // they ever widen.
      if (!out.empty()) return true;
    }
  }
  if (options.fuse_local_steps) {
    if (const auto t = ts.fusible_thread(cfg)) {
      ts.thread_successors_into(cfg, *t, out, want_labels);
      return false;
    }
  }
  ts.successors_into(cfg, out, want_labels);
  return false;
}

ReachResult visit_reachable(const TransitionSystem& ts,
                            const ReachOptions& options,
                            const StateVisitor& visitor) {
  // Strategy::Por and the historic `por` flag are one setting: normalise
  // both ways so callers may set either and stats/report code can key off
  // whichever it likes.
  if (options.mode == Strategy::Por || options.por) {
    ReachOptions normalised = options;
    normalised.mode = Strategy::Por;
    normalised.por = true;
    if (normalised.mode != options.mode || normalised.por != options.por) {
      return visit_reachable(ts, normalised, visitor);
    }
  }
  support::require(
      !(options.symmetry && options.rf_quotient),
      "--symmetry and --rf-quotient cannot be combined (v1): sleep masks "
      "cannot be transported through both quotients at once — pick one "
      "reduction");
  if (options.rf_quotient) {
    support::require(
        ts.system().options().model != memsem::MemoryModel::SC,
        "--rf-quotient requires the RC11 RAR model: under SC every access "
        "synchronises, so the quotient's view projection would drop "
        "observable state (drop --rf-quotient or the SC model)");
  }
  if (options.mode == Strategy::Sample) {
    support::require(
        !options.symmetry,
        "--symmetry requires exhaustive or POR exploration: the sampling "
        "strategy replays concrete schedules and cannot quotient states "
        "(drop --symmetry or the sampling strategy)");
    support::require(
        !options.rf_quotient,
        "--rf-quotient requires exhaustive or POR exploration: the sampling "
        "strategy replays concrete schedules and cannot quotient states "
        "(drop --rf-quotient or the sampling strategy)");
    return sample_reach(ts, options, visitor);
  }
  if (options.resume != nullptr) {
    // The enqueued set is a function of the reduction: a checkpoint taken
    // under POR seeds a different frontier than a full run needs (and vice
    // versa), so the settings must agree.  Thread count and strategy are
    // free to change — they never affect which states are enqueued.
    support::require(
        options.resume->por == options.por,
        "checkpoint was recorded with --por ",
        options.resume->por ? "on" : "off", " but this run has it ",
        options.por ? "on" : "off",
        "; resume must use the same reduction setting");
    // Same for the symmetry quotient: it decides which orbit representative
    // was interned and enqueued, so the settings must agree.
    support::require(
        options.resume->symmetry == options.symmetry,
        "checkpoint was recorded with --symmetry ",
        options.resume->symmetry ? "on" : "off", " but this run has it ",
        options.symmetry ? "on" : "off",
        "; resume must use the same reduction setting");
    // And for the execution-graph quotient, for the same reason: it decides
    // which class representative was interned and enqueued.
    support::require(
        options.resume->rf_quotient == options.rf_quotient,
        "checkpoint was recorded with --rf-quotient ",
        options.resume->rf_quotient ? "on" : "off", " but this run has it ",
        options.rf_quotient ? "on" : "off",
        "; resume must use the same reduction setting");
  }
  const unsigned workers = support::resolve_num_threads(options.num_threads);
  if (workers <= 1) return sequential_reach(ts, options, visitor);
  return parallel_reach(ts, options, visitor, workers);
}

ReachResult visit_reachable(const System& sys, const ReachOptions& options,
                            const StateVisitor& visitor) {
  const SystemTransitions ts(sys);
  return visit_reachable(ts, options, visitor);
}

}  // namespace rc11::engine
