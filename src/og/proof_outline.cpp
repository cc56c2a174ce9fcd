#include "og/proof_outline.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <span>

#include "engine/checkpoint.hpp"
#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"
#include "support/hash.hpp"

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

/// Evaluates every outline obligation at one reachable configuration —
/// validity (global invariant + the annotation at every thread's current pc)
/// and, when enabled, interference freedom over the enabled steps (the
/// classic {A ∧ pre(S)} S {A} side condition restricted to reachable
/// states; the step's precondition holds by the validity check).  Invokes
/// `fail(obligation)` per failed obligation, stopping after the first when
/// stop_at_first_failure.  Returns the number of obligations evaluated.
/// Shared by the sequential and parallel checkers so the obligation set can
/// never diverge between them.
template <typename FailFn>
std::uint64_t evaluate_obligations(const System& sys,
                                   const ProofOutline& outline,
                                   const OutlineCheckOptions& options,
                                   const Config& cfg,
                                   std::span<const Step> steps,
                                   const FailFn& fail) {
  std::uint64_t checked = 0;
  bool failed = false;

  checked += 1;
  if (!outline.global_invariant().eval(sys, cfg)) {
    fail("global invariant " + outline.global_invariant().name());
    failed = true;
  }
  if (!(failed && options.stop_at_first_failure)) {
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      checked += 1;
      const Assertion& ann = outline.at(t, cfg.pc[t]);
      if (!ann.eval(sys, cfg)) {
        fail(support::concat("annotation at t", t, " pc=", cfg.pc[t], ": ",
                             ann.name()));
        failed = true;
        if (options.stop_at_first_failure) break;
      }
    }
  }
  if (options.check_interference && !(failed && options.stop_at_first_failure)) {
    for (const auto& step : steps) {
      for (ThreadId t = 0; t < sys.num_threads(); ++t) {
        if (t == step.thread) continue;
        for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
          const Assertion& ann = outline.at(t, pc);
          checked += 1;
          if (ann.eval(sys, cfg) && !ann.eval(sys, step.after)) {
            fail(support::concat("interference: step [", step.label,
                                 "] breaks t", t, " pc=", pc, ": ",
                                 ann.name()));
            failed = true;
            if (options.stop_at_first_failure) break;
          }
        }
        if (failed && options.stop_at_first_failure) break;
      }
      if (failed && options.stop_at_first_failure) break;
    }
  }
  return checked;
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
  // driver.  With track_traces the driver records parent links in the trace
  // sink, so failures carry traces and replayable witnesses even from a
  // worker pool; the verdict and the set of failed obligations are
  // thread-count-independent (failures arrive unordered when parallel).
  OutlineCheckResult result;
  if (options.mode == engine::Strategy::Sample) {
    support::require(options.checkpoint_path.empty(),
                     "--checkpoint is not supported under --strategy sample: "
                     "a sampling run has no frontier to save");
    support::require(options.resume == nullptr,
                     "--resume is not supported under --strategy sample: a "
                     "sampling run has no frontier to continue from");
  }
  std::optional<explore::ShardedVisitedSet> trace_store;
  // Checkpoints are built from the trace sink, so requesting one implies
  // trace recording.
  if (options.track_traces || !options.checkpoint_path.empty()) {
    trace_store.emplace();
  }
  std::atomic<std::uint64_t> obligations{0};
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
  ropts.budget.max_states = options.max_states;
  ropts.budget.max_visited_bytes = options.max_visited_bytes;
  ropts.budget.deadline_ms = options.deadline_ms;
  ropts.num_threads = options.num_threads;
  ropts.por = options.por;
  ropts.symmetry = options.symmetry;
  ropts.rf_quotient = options.rf_quotient;
  ropts.sleep_sets = options.symmetry || options.rf_quotient;
  if (options.rf_quotient) collect_rf_pins(sys, outline, ropts.rf_pins);
  ropts.mode = options.mode;
  ropts.sample = options.sample;
  ropts.want_labels = true;  // interference messages cite the step label
  ropts.trace = trace_store ? &*trace_store : nullptr;
  ropts.cancel = options.cancel;
  ropts.fault = options.fault;
  ropts.resume = options.resume;

  const std::uint64_t init_digest =
      options.track_traces ? witness::config_digest(lang::initial_config(sys))
                           : 0;

  const auto reach = explore::visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t id,
          std::span<const lang::Step> steps) -> bool {
        std::uint64_t local_obligations = 0;
        bool stop = false;
        const auto check_member = [&](const Config& member,
                                      std::span<const lang::Step> msteps,
                                      bool is_rep) {
          std::vector<std::string> local_failures;
          local_obligations += evaluate_obligations(
              sys, outline, options, member, msteps,
              [&](std::string obligation) {
                local_failures.push_back(std::move(obligation));
              });
          if (local_failures.empty()) return;
          valid.store(false, std::memory_order_relaxed);
          const auto dump = member.to_string(sys);
          std::vector<std::string> trace;
          std::optional<witness::Witness> wit;
          if (trace_store) {
            const auto edges = trace_store->path_to(id);
            trace.reserve(edges.size() + 2);
            trace.emplace_back("init");
            witness::Witness w;
            w.kind = "outline";
            w.source = "og::check_outline";
            w.state_dump = dump;
            w.initial_digest = init_digest;
            w.steps.reserve(edges.size());
            std::vector<std::uint64_t> enc;
            for (const auto& e : edges) {
              trace.push_back(e.label);
              enc.clear();
              trace_store->decode_state(e.state, enc);
              w.steps.push_back({e.thread, e.label, support::hash_words(enc)});
            }
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
                      perm[step.thread], step.label,
                      reducer->permuted(step.after, perm), step.meta});
                }
                check_member(member, psteps, /*is_rep=*/false);
              });
        } else {
          check_member(cfg, steps, /*is_rep=*/true);
        }
        obligations.fetch_add(local_obligations, std::memory_order_relaxed);
        return !stop;
      });

  result.valid = valid.load();
  result.stats = reach.stats;
  result.stop = reach.stop;
  result.obligations_checked = obligations.load();
  if (!options.checkpoint_path.empty() && reach.truncated()) {
    engine::save_checkpoint(
        engine::make_checkpoint(*trace_store, reach.stats, reach.stop,
                                options.por, options.symmetry,
                                options.rf_quotient),
        options.checkpoint_path);
  }
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
  ropts.budget.max_states = max_states;
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
