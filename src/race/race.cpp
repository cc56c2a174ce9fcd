#include "race/race.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/symmetry.hpp"

namespace rc11::race {

namespace {

using engine::ReachOptions;
using engine::ShardedVisitedSet;
using lang::Step;

/// Dedup and sort key of a race: the location plus both access sites in
/// canonical order — exactly what the cross-checks compare, and nothing
/// run-dependent (no traces, no state dumps).
using Key = std::array<std::uint64_t, 7>;

Key key_of(const RaceRecord& r) {
  return {r.loc,
          r.prior.thread,
          r.prior.pc,
          static_cast<std::uint64_t>(r.prior.cat),
          r.current.thread,
          r.current.pc,
          static_cast<std::uint64_t>(r.current.cat)};
}

/// Canonicalises the unordered access pair.  Which side the detector
/// recorded as "prior" depends on the interleaving (and, under reductions,
/// on which orbit member gets visited), so the two sides are sorted by
/// (thread, pc, category) before dedup.
RaceRecord canonical_pair(RaceRecord r) {
  const auto rank = [](const RaceAccess& a) {
    return std::make_tuple(a.thread, a.pc, static_cast<unsigned>(a.cat));
  };
  if (rank(r.current) < rank(r.prior)) std::swap(r.prior, r.current);
  return r;
}

std::string describe(const System& sys, const RaceRecord& r) {
  std::ostringstream os;
  os << "data race on '" << sys.locations().name(r.loc) << "': t"
     << static_cast<unsigned>(r.prior.thread) << " " << access_name(r.prior.cat)
     << " at pc " << r.prior.pc << " vs t"
     << static_cast<unsigned>(r.current.thread) << " "
     << access_name(r.current.cat) << " at pc " << r.current.pc;
  return os.str();
}

}  // namespace

const char* access_name(RaceCat cat) noexcept {
  switch (cat) {
    case RaceCat::NaRead:
      return "non-atomic read";
    case RaceCat::AtomicRead:
      return "atomic read";
    case RaceCat::NaWrite:
      return "non-atomic write";
    case RaceCat::AtomicWrite:
      return "atomic write";
  }
  return "access";
}

RaceResult check(const System& sys, const RaceOptions& options) {
  // Race tracking lives inside MemState behind SemanticsOptions::
  // race_detection; run on a copy with the flag forced on so every other
  // checker keeps its clock-free encodings.
  System traced = sys;
  {
    auto sem = traced.options();
    sem.race_detection = true;
    traced.set_options(sem);
  }

  std::optional<ShardedVisitedSet> trace_store;
  if (options.track_traces || !options.checkpoint_path.empty()) {
    trace_store.emplace();
  }

  std::optional<engine::SymmetryReducer> reducer;
  if (options.symmetry) reducer.emplace(traced);
  const bool orbit = reducer.has_value() && reducer->symmetric();

  ReachOptions ropts;
  static_cast<engine::RunControl&>(ropts) = options;
  ropts.trace = trace_store ? &*trace_store : nullptr;

  std::mutex mu;
  // An ordered map doubles as the dedup set and the canonical output order.
  std::map<Key, ReportedRace> races;

  // Builds trace + witness for a directly observed record: the recorded
  // path to the visited state plus one appended step — the racing step
  // itself — so the witness replays through *both* access sites.
  const auto observe = [&](ReportedRace& out, const RaceRecord& rec,
                           std::uint64_t id, const Step& step) {
    out.record = rec;
    out.location = traced.locations().name(rec.loc);
    out.what = describe(traced, rec);
    out.state_dump = step.after.to_string(traced);
    out.trace.clear();
    out.witness.reset();
    if (!trace_store) return;
    // recorded_run is safe against concurrent inserts.
    witness::Witness w;
    w.kind = "race";
    w.source = "race";
    w.what = out.what;
    w.state_dump = out.state_dump;
    engine::recorded_run(*trace_store, id, out.trace, w);
    out.trace.push_back(step.label);
    w.steps.push_back(
        {step.thread, step.label, witness::config_digest(step.after)});
    out.witness = std::move(w);
  };

  const auto reach = engine::visit_reachable(
      traced, ropts,
      [&](const Config& cfg, std::uint64_t id,
          std::span<const Step> steps) -> bool {
        (void)cfg;
        bool keep_going = true;
        for (const Step& step : steps) {
          // Records live on the *post*-state of each enabled step, never on
          // the visited configuration: the visited-set encoding excludes
          // them, so a state reachable through both a racing and a
          // race-free step would otherwise keep whichever arrived first.
          for (const RaceRecord& raw : step.after.mem.race_records()) {
            const RaceRecord rec = canonical_pair(raw);
            if (options.stop_on_race) keep_going = false;
            std::lock_guard<std::mutex> lock(mu);
            auto [it, inserted] = races.try_emplace(key_of(rec));
            if (inserted) {
              observe(it->second, rec, id, step);
            } else if (trace_store && !it->second.witness) {
              // First inserted as a symmetry-closed sibling; now directly
              // observed — upgrade it to a witnessed report.
              observe(it->second, rec, id, step);
            }
            if (!orbit) continue;
            // Orbit closure: a permuted execution of the racy trace is a
            // real execution reporting the thread-permuted record, so the
            // full (unreduced) race set is exactly the closure of the
            // representative records under the symmetry group.  pcs stay:
            // interchangeable threads run identical code.
            const std::vector<std::string>& rep_trace = it->second.trace;
            reducer->for_each_perm([&](const engine::ThreadPerm& perm) {
              RaceRecord sibling = rec;
              sibling.prior.thread = perm[rec.prior.thread];
              sibling.current.thread = perm[rec.current.thread];
              sibling = canonical_pair(sibling);
              auto [sit, fresh] = races.try_emplace(key_of(sibling));
              if (!fresh) return;
              ReportedRace& sib = sit->second;
              sib.record = sibling;
              sib.location = traced.locations().name(sibling.loc);
              sib.what = describe(traced, sibling);
              sib.state_dump =
                  reducer->permuted(step.after, perm).to_string(traced);
              sib.trace = rep_trace;
              if (!sib.trace.empty()) {
                sib.trace.emplace_back(
                    "(racing threads are a thread permutation of the threads "
                    "this trace exercises)");
              }
              // No witness: the permuted execution was pruned by the
              // quotient.  Its orbit representative above carries one.
            });
          }
        }
        return keep_going;
      });

  RaceResult result;
  result.stats = reach.stats;
  result.stop = reach.stop;
  result.truncated = reach.stop != engine::StopReason::Complete;
  result.races.reserve(races.size());
  for (auto& [key, r] : races) result.races.push_back(std::move(r));
  return result;
}

}  // namespace rc11::race
