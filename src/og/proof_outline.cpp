#include "og/proof_outline.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <span>

#include "engine/checkpoint.hpp"
#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"

namespace rc11::og {

using lang::Step;

ProofOutline::ProofOutline(const System& sys) {
  annotations_.resize(sys.num_threads());
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    annotations_[t].assign(sys.code(t).size() + 1, Assertion::always());
  }
}

void ProofOutline::annotate(ThreadId t, std::uint32_t pc, Assertion a) {
  support::require(t < annotations_.size(), "annotate: thread out of range");
  support::require(pc < annotations_[t].size(),
                   "annotate: pc out of range for thread ", t);
  annotations_[t][pc] = std::move(a);
}

void ProofOutline::postcondition(ThreadId t, Assertion a) {
  annotate(t, terminal_pc(t), std::move(a));
}

const Assertion& ProofOutline::at(ThreadId t, std::uint32_t pc) const {
  const auto& anns = annotations_.at(t);
  // Control never moves past the terminal pc, but clamp defensively.
  return anns[pc < anns.size() ? pc : anns.size() - 1];
}

std::uint32_t ProofOutline::terminal_pc(ThreadId t) const {
  return static_cast<std::uint32_t>(annotations_.at(t).size() - 1);
}

namespace {

/// The interference obligations a step can fail, by the step's write set
/// (the read-set rule in og/proof_outline.hpp): per acting thread and
/// written location (or none), the other threads' annotations whose read
/// set that write set meets, in the full obligation loop's order.  StepMeta
/// is a pure function of the instruction, so the write sets come from the
/// code; locations are collected over every thread's code, so the permuted
/// steps of a symmetry orbit member find their list too.
class InterferencePlan {
 public:
  struct Entry {
    const Assertion* ann = nullptr;
    ThreadId t = 0;
    std::uint32_t pc = 0;
    /// Position among the step's logical obligations (every annotation of
    /// every other thread, by thread then pc).
    std::uint64_t index = 0;
  };

  InterferencePlan(const System& sys, const ProofOutline& outline)
      : slots_(sys.locations().size() + 1),
        list_of_(sys.num_threads() * slots_, kNoList),
        per_step_(sys.num_threads(), 0) {
    std::set<std::optional<lang::LocId>> writes;
    for (ThreadId u = 0; u < sys.num_threads(); ++u) {
      for (const auto& in : sys.code(u)) {
        writes.insert(written(lang::access_footprint(in)));
      }
    }
    for (ThreadId u = 0; u < sys.num_threads(); ++u) {
      for (ThreadId t = 0; t < sys.num_threads(); ++t) {
        if (t != u) per_step_[u] += outline.terminal_pc(t) + 1;
      }
      for (const auto& loc : writes) {
        list_of_[key(u, loc)] = static_cast<std::uint32_t>(lists_.size());
        lists_.push_back(build(sys, outline, u, loc));
      }
    }
  }

  /// The obligations a step of thread `u` with footprint `meta` may fail,
  /// in logical order.
  [[nodiscard]] std::span<const Entry> entries(
      ThreadId u, const lang::StepMeta& meta) const {
    const auto list = list_of_[key(u, written(meta))];
    RC11_REQUIRE(list != kNoList, "step footprint missing from the plan");
    return lists_[list];
  }

  /// Logical obligations per step of thread `u`.
  [[nodiscard]] std::uint64_t obligations(ThreadId u) const {
    return per_step_[u];
  }

 private:
  static constexpr std::uint32_t kNoList = 0xffffffffu;

  static std::optional<lang::LocId> written(const lang::StepMeta& meta) {
    if (!memsem::writes_location(meta.access)) return std::nullopt;
    return meta.loc;
  }

  [[nodiscard]] std::size_t key(ThreadId u,
                                std::optional<lang::LocId> loc) const {
    return u * slots_ + (loc ? *loc + 1 : 0);
  }

  static std::vector<Entry> build(const System& sys,
                                  const ProofOutline& outline, ThreadId u,
                                  std::optional<lang::LocId> loc) {
    std::vector<Entry> list;
    std::uint64_t index = 0;
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      if (t == u) continue;
      for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc, ++index) {
        const Assertion& ann = outline.at(t, pc);
        if (ann.footprint().meets(u, loc)) list.push_back({&ann, t, pc, index});
      }
    }
    return list;
  }

  std::size_t slots_;  ///< one per location, plus "writes nothing"
  std::vector<std::uint32_t> list_of_;  ///< [u * slots_ + slot] -> lists_
  std::vector<std::vector<Entry>> lists_;
  std::vector<std::uint64_t> per_step_;
};

struct ObligationCounts {
  std::uint64_t checked = 0;    ///< logical obligations
  std::uint64_t evaluated = 0;  ///< those whose assertions were evaluated
};

/// Evaluates every outline obligation at one reachable configuration —
/// validity (global invariant + the annotation at every thread's current pc)
/// and, when enabled, interference freedom over the enabled steps (the
/// classic {A ∧ pre(S)} S {A} side condition restricted to reachable
/// states; the step's precondition holds by the validity check), skipping
/// the interference obligations `plan` proves unaffected.  Invokes
/// `fail(obligation)` per failed obligation, stopping after the first when
/// stop_at_first_failure; `label_of(i)` renders steps[i]'s label for a
/// message.  Adds to `counts`: every logical obligation up to the stop, as
/// if none were skipped, and the evaluated ones.  Shared by the sequential
/// and parallel checkers so the obligation set can never diverge between
/// them.
template <typename LabelFn, typename FailFn>
void evaluate_obligations(const System& sys, const ProofOutline& outline,
                          const InterferencePlan& plan,
                          const OutlineCheckOptions& options, const Config& cfg,
                          std::span<const Step> steps, const LabelFn& label_of,
                          const FailFn& fail, ObligationCounts& counts) {
  bool failed = false;
  const auto validity = [&](const Assertion& ann) {
    counts.checked += 1;
    counts.evaluated += 1;
    return ann.eval(sys, cfg);
  };

  if (!validity(outline.global_invariant())) {
    fail("global invariant " + outline.global_invariant().name());
    failed = true;
  }
  if (!(failed && options.stop_at_first_failure)) {
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      const Assertion& ann = outline.at(t, cfg.pc[t]);
      if (!validity(ann)) {
        fail(support::concat("annotation at t", t, " pc=", cfg.pc[t], ": ",
                             ann.name()));
        failed = true;
        if (options.stop_at_first_failure) break;
      }
    }
  }
  if (!options.check_interference ||
      (failed && options.stop_at_first_failure)) {
    return;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    std::uint64_t step_checked = plan.obligations(step.thread);
    for (const auto& e : plan.entries(step.thread, step.meta)) {
      counts.evaluated += 1;
      if (e.ann->eval(sys, cfg) && !e.ann->eval(sys, step.after)) {
        fail(support::concat("interference: step [", label_of(i),
                             "] breaks t", e.t, " pc=", e.pc, ": ",
                             e.ann->name()));
        failed = true;
        if (options.stop_at_first_failure) {
          step_checked = e.index + 1;
          break;
        }
      }
    }
    counts.checked += step_checked;
    if (failed && options.stop_at_first_failure) return;
  }
}

/// Pins every annotation's view footprint into the rf-quotient key so each
/// obligation is a function of the key and verdicts are class-invariant;
/// rejects assertions with unknown footprints.
void collect_rf_pins(const System& sys, const ProofOutline& outline,
                     engine::RfPins& pins) {
  const auto collect = [&](const Assertion& a) {
    const auto& fp = a.footprint();
    support::require(
        !fp.everything, "--rf-quotient cannot check assertion '", a.name(),
        "': its view footprint is unknown (ad-hoc predicate); drop "
        "--rf-quotient or express it with the footprinted assertion "
        "factories");
    for (const auto& e : fp.entries) pins.entries.push_back(e);
  };
  collect(outline.global_invariant());
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
      collect(outline.at(t, pc));
    }
  }
}

}  // namespace

OutlineCheckResult check_outline(const System& sys, const ProofOutline& outline,
                                 OutlineCheckOptions options) {
  // One implementation for every thread count, on the shared reachability
  // driver.  With a trace sink the driver records parent links, so failures
  // carry traces and replayable witnesses even from a worker pool; the
  // verdict and the set of failed obligations are thread-count-independent
  // (failures arrive unordered when parallel).
  OutlineCheckResult result;
  std::optional<explore::ShardedVisitedSet> trace_store;
  // The driver builds checkpoints from the trace sink, so requesting one
  // implies trace recording.
  if (options.track_traces || !options.checkpoint_path.empty()) {
    trace_store.emplace();
  }
  std::atomic<std::uint64_t> obligations{0};
  std::atomic<std::uint64_t> evaluated{0};
  std::atomic<bool> valid{true};
  std::mutex failures_mu;

  // Under the symmetry quotient the driver visits one representative per
  // orbit; exactness of the Owicki–Gries obligations is restored here by
  // evaluating them at every orbit member, against the member's enabled
  // steps (the representative's steps pushed through the permutation — the
  // group action commutes with the successor relation).
  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(sys);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  explore::ReachOptions ropts;
  static_cast<engine::RunControl&>(ropts) = options;
  if (options.rf_quotient) collect_rf_pins(sys, outline, ropts.rf_pins);
  // Steps carry labels only when the trace sink forces them; otherwise a
  // failure message regenerates the one label it cites (label_of below).
  ropts.trace = trace_store ? &*trace_store : nullptr;

  const InterferencePlan plan(sys, outline);

  const auto reach = explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t id,
          std::span<const lang::Step> steps) -> bool {
        ObligationCounts local_counts;
        bool stop = false;
        // The label of the representative's steps[i].  Under the trace sink
        // visit_reachable built it; otherwise it is regenerated on demand
        // (only failure messages cite one).  visit_reachable hands the
        // visitor whole per-thread runs, so the k-th step of thread u in
        // `steps` is the k-th of lang::thread_successors(cfg, u).  Orbit members cite the
        // representative's label, as their steps are its steps permuted.
        const auto label_of = [&](std::size_t i) -> std::string {
          if (trace_store) return steps[i].label;
          const ThreadId u = steps[i].thread;
          std::size_t k = 0;
          for (std::size_t j = 0; j < i; ++j) {
            if (steps[j].thread == u) ++k;
          }
          return lang::thread_successors(sys, cfg, u, /*want_labels=*/true)[k]
              .label;
        };
        const auto check_member = [&](const Config& member,
                                      std::span<const lang::Step> msteps,
                                      bool is_rep) {
          std::vector<std::string> local_failures;
          evaluate_obligations(
              sys, outline, plan, options, member, msteps, label_of,
              [&](std::string obligation) {
                local_failures.push_back(std::move(obligation));
              },
              local_counts);
          if (local_failures.empty()) return;
          valid.store(false, std::memory_order_relaxed);
          const auto dump = member.to_string(sys);
          std::vector<std::string> trace;
          std::optional<witness::Witness> wit;
          if (trace_store) {
            witness::Witness w;
            w.kind = "outline";
            w.source = "og::check_outline";
            w.state_dump = dump;
            engine::recorded_run(*trace_store, id, trace, w);
            if (!is_rep) {
              trace.emplace_back(
                  "(failing state is a thread permutation of the state this "
                  "trace reaches)");
            }
            wit = std::move(w);
          }
          {
            std::lock_guard<std::mutex> lock(failures_mu);
            for (auto& obligation : local_failures) {
              ObligationFailure failure;
              failure.obligation = std::move(obligation);
              failure.state_dump = dump;
              failure.trace = trace;
              if (wit) {
                failure.witness = *wit;
                failure.witness->what = failure.obligation;
              }
              result.failures.push_back(std::move(failure));
            }
          }
          if (options.stop_at_first_failure) stop = true;
        };
        if (orbit) {
          std::vector<lang::Step> psteps;
          bool is_rep = true;
          reducer->for_each_orbit(
              cfg, [&](const Config& member, const engine::ThreadPerm& perm) {
                if (stop) return;
                if (is_rep) {
                  is_rep = false;
                  check_member(member, steps, /*is_rep=*/true);
                  return;
                }
                psteps.clear();
                psteps.reserve(steps.size());
                for (const auto& step : steps) {
                  psteps.push_back(lang::Step{
                      perm[step.thread], {},
                      reducer->permuted(step.after, perm), step.meta});
                }
                check_member(member, psteps, /*is_rep=*/false);
              });
        } else {
          check_member(cfg, steps, /*is_rep=*/true);
        }
        obligations.fetch_add(local_counts.checked, std::memory_order_relaxed);
        evaluated.fetch_add(local_counts.evaluated, std::memory_order_relaxed);
        return !stop;
      });

  result.valid = valid.load();
  result.stats = reach.stats;
  result.stop = reach.stop;
  result.obligations_checked = obligations.load();
  result.obligations_evaluated = evaluated.load();
  return result;
}

TripleCheckResult check_triple(const System& sys, const Assertion& pre,
                               const StatementFilter& filter,
                               const TriplePost& post,
                               std::uint64_t max_states) {
  // The triple quantifies over every reachable instance of the filtered
  // statement, so the full (unreduced) driver enumerates states and hands
  // each one its enabled steps — no private successor loop.
  TripleCheckResult result;
  explore::ReachOptions ropts;
  ropts.max_states = max_states;
  ropts.want_labels = true;  // failure messages cite the step label
  (void)explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t /*id*/,
          std::span<const Step> steps) -> bool {
        if (!pre.eval(sys, cfg)) return true;
        for (const auto& step : steps) {
          const Instr& in = sys.code(step.thread)[cfg.pc[step.thread]];
          if (!filter(step.thread, in)) continue;
          result.instances_checked += 1;
          if (!post(sys, cfg, step.after)) {
            result.valid = false;
            ObligationFailure failure;
            failure.obligation =
                support::concat("triple violated by step [", step.label, "]");
            failure.state_dump = cfg.to_string(sys) + "-- after --\n" +
                                 step.after.to_string(sys);
            result.failures.push_back(std::move(failure));
          }
        }
        return true;
      });
  return result;
}

}  // namespace rc11::og
