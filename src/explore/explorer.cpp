#include "explore/explorer.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/symmetry.hpp"
#include "support/diagnostics.hpp"

namespace rc11::explore {

namespace {

// Successor generation and the sequential/parallel reachability drivers live
// in the engine layer (engine/reach.cpp, engine/transition_system.cpp); this
// translation unit only layers invariant checking, final-config collection
// and witness construction on top of engine::visit_reachable.

/// A final configuration together with its canonical encoding.  The
/// encoding is computed exactly once — when the config passes final
/// deduplication — and reused as the sort key, fixing the old
/// encode-for-dedup-then-re-encode-for-sort double work.
using KeyedConfig = std::pair<std::vector<std::uint64_t>, Config>;

/// Canonical ordering for deterministic results across thread counts: sort
/// configs by their encodings (equal encodings == semantically identical
/// configurations, so the order is total on deduplicated sets), then strip
/// the keys.
std::vector<Config> sort_keyed_configs(std::vector<KeyedConfig>& keyed) {
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedConfig& a, const KeyedConfig& b) {
              return a.first < b.first;
            });
  std::vector<Config> sorted;
  sorted.reserve(keyed.size());
  for (auto& [enc, cfg] : keyed) sorted.push_back(std::move(cfg));
  keyed.clear();
  return sorted;
}

void sort_violations(std::vector<Violation>& violations) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.what != b.what) return a.what < b.what;
              return a.state_dump < b.state_dump;
            });
}

}  // namespace

ExploreResult explore(const System& sys, const ExploreOptions& options,
                      const Invariant& invariant) {
  // One implementation for every thread count and trace mode, layered on
  // the generic reachability driver: final-config collection, invariant
  // evaluation, and — when a trace sink is kept — witness construction
  // from its parent links.  The mutexes are uncontended in sequential
  // runs and cold in parallel ones (finals and violations are rare events
  // next to state expansion).
  ExploreResult result;
  std::optional<ShardedVisitedSet> trace_store;
  // The driver builds checkpoints from the trace sink, so requesting one
  // implies trace recording.
  if (options.track_traces || !options.checkpoint_path.empty()) {
    trace_store.emplace();
  }

  // Under the symmetry quotient the driver hands the visitor one orbit
  // representative per equivalence class; exactness of finals and invariant
  // verdicts is *this* layer's duty: finals are orbit-closed and the
  // invariant is evaluated at every orbit member.  for_each_orbit and
  // permuted() are const and scratch-free, so one reducer is safely shared
  // by all visitor threads.
  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(sys);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  ReachOptions ropts;
  static_cast<engine::RunControl&>(ropts) = options;
  ropts.strategy = options.strategy;
  ropts.rf_pins = options.rf_pins;
  ropts.trace = trace_store ? &*trace_store : nullptr;

  ShardedVisitedSet final_dedup;
  std::mutex finals_mu;
  std::vector<KeyedConfig> finals;
  std::mutex violations_mu;
  std::vector<Violation> violations;

  const auto reach = visit_reachable(
      sys, ropts,
      [&](const Config& cfg, std::uint64_t id,
          std::span<const Step> steps) -> bool {
        bool keep_going = true;
        if (invariant) {
          const auto check_member = [&](const Config& member, bool is_rep) {
            auto what = invariant(sys, member);
            if (!what) return;
            Violation v;
            v.what = std::move(*what);
            v.state_dump = member.to_string(sys);
            if (trace_store) {
              // recorded_run is safe against concurrent inserts, so a
              // violating state is reconstructed right here, mid-run.  Under the
              // quotient the recorded path leads to the orbit
              // *representative*; for a violation at a permuted member the
              // trace is still a real execution (witness digests replay to
              // the representative) and the permutation is flagged below.
              witness::Witness w;
              w.kind = "invariant";
              w.source = "explore";
              w.what = v.what;
              w.state_dump = v.state_dump;
              engine::recorded_run(*trace_store, id, v.trace, w);
              if (!is_rep) {
                v.trace.emplace_back(
                    "(violating state is a thread permutation of the state "
                    "this trace reaches)");
              }
              v.witness = std::move(w);
            }
            std::lock_guard<std::mutex> lock(violations_mu);
            violations.push_back(std::move(v));
            if (options.stop_on_violation) keep_going = false;
          };
          if (orbit) {
            bool is_rep = true;
            reducer->for_each_orbit(
                cfg, [&](const Config& member, const engine::ThreadPerm&) {
                  check_member(member, is_rep);
                  is_rep = false;
                });
          } else {
            check_member(cfg, /*is_rep=*/true);
          }
        }
        if (options.collect_finals && steps.empty() && cfg.all_done(sys)) {
          const auto collect = [&](const Config& done) {
            // Encode once; the encoding doubles as the dedup key here and
            // the canonical sort key below.
            std::vector<std::uint64_t> enc;
            enc.reserve(64);
            done.encode_into(enc);
            if (final_dedup.insert(enc)) {
              std::lock_guard<std::mutex> lock(finals_mu);
              finals.emplace_back(std::move(enc), done);
            }
          };
          // all_done is permutation-invariant, so orbit-closing the finals
          // here restores the exact final set of an unreduced run.
          if (orbit) {
            reducer->for_each_orbit(
                cfg, [&](const Config& member, const engine::ThreadPerm&) {
                  collect(member);
                });
          } else {
            collect(cfg);
          }
        }
        return keep_going;
      });

  result.stats = reach.stats;
  result.stop = reach.stop;
  result.truncated = reach.stop != engine::StopReason::Complete;
  result.final_configs = sort_keyed_configs(finals);
  result.violations = std::move(violations);
  sort_violations(result.violations);
  return result;
}

std::vector<std::vector<lang::Value>> final_register_values(
    const System& sys, const ExploreResult& result,
    const std::vector<lang::Reg>& regs) {
  std::vector<std::vector<lang::Value>> outcomes;
  outcomes.reserve(result.final_configs.size());
  for (const auto& cfg : result.final_configs) {
    std::vector<lang::Value> tuple;
    tuple.reserve(regs.size());
    for (const auto& r : regs) {
      RC11_REQUIRE(r.thread < cfg.regs.size() && r.id < cfg.regs[r.thread].size(),
                   "register out of range in outcome extraction");
      tuple.push_back(cfg.regs[r.thread][r.id]);
    }
    outcomes.push_back(std::move(tuple));
  }
  // Sort-then-unique instead of a std::find per final config: the old
  // quadratic dedup dominated outcome extraction on large final sets.
  std::sort(outcomes.begin(), outcomes.end());
  outcomes.erase(std::unique(outcomes.begin(), outcomes.end()), outcomes.end());
  (void)sys;
  return outcomes;
}

bool outcome_reachable(const System& sys, const ExploreResult& result,
                       const std::vector<lang::Reg>& regs,
                       const std::vector<lang::Value>& values) {
  const auto outcomes = final_register_values(sys, result, regs);
  return std::binary_search(outcomes.begin(), outcomes.end(), values);
}

}  // namespace rc11::explore
