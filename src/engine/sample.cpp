// rc11lib/engine/sample.cpp
//
// The Strategy::Sample reachability driver: seeded, feedback-guided random
// schedules in the C11Tester style (see sample.hpp for the design and
// composition notes).  Episodes are strictly sequential — the guided bias
// makes every episode depend on all earlier ones, and same seed ==> same
// run, byte for byte, is the property CI enforces.

#include "engine/sample.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/reach.hpp"
#include "support/intern.hpp"

namespace rc11::engine {

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::Exhaustive:
      return "exhaustive";
    case Strategy::Sample:
      return "sample";
  }
  return "unknown";
}

namespace {

/// The reductions of `r`, each with its command-line spelling.
std::array<std::pair<bool, const char*>, 3> reductions(const Reduction& r) {
  return {{{r.por, "--por"},
           {r.symmetry, "--symmetry"},
           {r.rf_quotient, "--rf-quotient"}}};
}

/// The reduction flags `r` sets, space-separated, or "no reduction".
std::string spelled(const Reduction& r) {
  std::string flags;
  for (const auto& [on, flag] : reductions(r)) {
    if (!on) continue;
    if (!flags.empty()) flags += ' ';
    flags += flag;
  }
  return flags.empty() ? "no reduction" : flags;
}

}  // namespace

std::string reduction_conflict(const Reduction& r, bool checkpoint,
                               bool resume, const Reduction* recorded,
                               bool sc) {
  if (r.symmetry && r.rf_quotient) {
    return "--symmetry and --rf-quotient cannot be combined: sleep masks "
           "cannot be transported through both quotients at once — pick one "
           "reduction";
  }
  if (r.mode == Strategy::Sample) {
    for (const auto& [on, flag] : reductions(r)) {
      if (on) {
        return std::string{flag} +
               " cannot be combined with --strategy sample: a sampling run "
               "replays concrete schedules, which no reduction can prune or "
               "quotient (drop one of the two)";
      }
    }
    for (const auto& [on, flag] : {std::pair{checkpoint, "--checkpoint"},
                                   std::pair{resume, "--resume"}}) {
      if (on) {
        return std::string{flag} +
               " cannot be combined with --strategy sample: a sampling run "
               "has no frontier to continue from (re-run with a fresh "
               "--seed instead)";
      }
    }
  }
  if (r.rf_quotient && sc) {
    return "--rf-quotient requires the RC11 RAR model: under SC every access "
           "synchronises, so the quotient's view projection would drop "
           "observable state (drop --rf-quotient or the SC model)";
  }
  if (recorded != nullptr && spelled(*recorded) != spelled(r)) {
    return "--resume: the checkpoint was recorded with " + spelled(*recorded) +
           " but this run has " + spelled(r) +
           "; resume with the same --por, --symmetry and --rf-quotient flags";
  }
  return {};
}

bool parse_strategy(std::string_view text, Reduction& out) {
  if (text == "exhaustive") {
    out.mode = Strategy::Exhaustive;
    return true;
  }
  if (text == "por") {
    out.mode = Strategy::Exhaustive;
    out.por = true;
    return true;
  }
  if (text == "sample") {
    out.mode = Strategy::Sample;
    out.sample.episodes = SampleOptions{}.episodes;
    return true;
  }
  constexpr std::string_view kPrefix = "sample:";
  if (text.substr(0, kPrefix.size()) == kPrefix) {
    const std::string_view digits = text.substr(kPrefix.size());
    if (digits.empty()) return false;
    std::uint64_t value = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') return false;
      if (value > (UINT64_MAX - 9) / 10) return false;  // overflow
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0) return false;
    out.mode = Strategy::Sample;
    out.sample.episodes = value;
    return true;
  }
  return false;
}

namespace {

/// splitmix64 — hand-rolled so the draw sequence is identical on every
/// platform and standard library (std:: distributions make no such
/// guarantee, and the seed-determinism CI gate byte-compares reports).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform-enough draw in [0, n); n > 0.  The modulo bias is irrelevant
  /// for schedule sampling and keeps the draw a single deterministic op.
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Numerator of the guided weight kWeightScale / (1 + hits): large enough
/// that a site needs ~a million executions before rounding to weight 0 (and
/// a floor below keeps even those drawable).
constexpr std::uint64_t kWeightScale = 1ULL << 20;

/// One contiguous run of same-thread steps in a successor buffer, the unit
/// the weighted thread draw picks between.
struct ThreadRange {
  lang::ThreadId thread = 0;
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

/// Executions per site, keyed as the caller chooses.
using HitCounts = std::unordered_map<std::uint64_t, std::uint64_t>;

/// The guided draw: an index in [0, n), option i weighted
/// kWeightScale / (1 + hits of site_of(i)) so that rarely executed options
/// are favoured, with a floor of 1 so that every option stays drawable.
/// One rng.below over the summed weights when there is a choice, none when
/// n == 1, so a seed fixes every draw.  `weights` is reused scratch.
template <typename SiteOf>
std::size_t weighted_draw(std::size_t n, const HitCounts& hits,
                          const SiteOf& site_of, SplitMix64& rng,
                          std::vector<std::uint64_t>& weights) {
  if (n <= 1) return 0;
  weights.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = hits.find(site_of(i));
    const std::uint64_t seen = it == hits.end() ? 0 : it->second;
    const std::uint64_t w =
        std::max<std::uint64_t>(kWeightScale / (1 + seen), 1);
    weights.push_back(w);
    total += w;
  }
  std::uint64_t r = rng.below(total);
  std::size_t pick = 0;
  while (r >= weights[pick]) {
    r -= weights[pick];
    pick += 1;
  }
  return pick;
}

}  // namespace

ReachResult sample_reach(const TransitionSystem& ts,
                         const ReachOptions& options,
                         const StateVisitor& visitor) {
  const System& sys = ts.system();
  ReachResult result;
  // Untraced runs keep a lock-free interned set; a trace sink replaces it
  // (resolve_traced assigns ids and records first-reach parent links, which
  // is what makes violating episodes replayable witnesses).
  support::InternedWordSet visited;
  const bool want_labels = options.want_labels || options.trace != nullptr;
  BudgetEnforcer enforcer(options, options.cancel, options.fault,
                          [&]() -> std::uint64_t {
                            return options.trace ? options.trace->bytes()
                                                 : visited.bytes();
                          });
  SplitMix64 rng(options.sample.seed);
  // Guided bias: executions per (thread, pc) site, across and within
  // episodes.  Sites that keep winning the draw decay towards the weight
  // floor, so rare branches — and schedules past a spin loop — get sampled.
  HitCounts hits;
  const auto thread_site = [](lang::ThreadId thread,
                              std::uint32_t pc) noexcept {
    return (static_cast<std::uint64_t>(thread) << 32) |
           static_cast<std::uint64_t>(pc);
  };
  // Second guided layer: executions per (thread, pc, within-thread choice
  // index) — the reads-from / placement / CAS alternative drawn once a
  // thread won.  Kept in its own map so the thread-level bias above is
  // unchanged; the FNV fold is deterministic, and a (harmless, improbable)
  // key collision only perturbs a weight, never a verdict.
  HitCounts choice_hits;
  const auto choice_site = [](lang::ThreadId thread, std::uint32_t pc,
                              std::size_t choice) noexcept {
    std::uint64_t key = 0xCBF29CE484222325ULL;
    key = (key ^ thread) * 0x100000001B3ULL;
    key = (key ^ pc) * 0x100000001B3ULL;
    key = (key ^ choice) * 0x100000001B3ULL;
    return key;
  };

  lang::StepBuffer steps;
  std::vector<std::uint64_t> scratch;
  std::vector<ThreadRange> ranges;
  std::vector<std::uint64_t> weights;
  std::uint64_t probe_clock = 0;  // steps since the last budget probe
  bool vetoed = false;

  // Interns `cfg`, returning {fresh, id-or-kNoState}.  First visits claim a
  // state from the budget (the state cap stays a distinct-state bound — the
  // coverage cap) via the caller.
  const auto intern = [&](const Config& cfg, std::uint64_t parent,
                          memsem::ThreadId thread, std::string&& label)
      -> std::pair<bool, std::uint64_t> {
    scratch.clear();
    cfg.encode_into(scratch);
    if (options.trace != nullptr) {
      const auto ins =
          options.trace->resolve_traced(scratch, parent, thread,
                                        std::move(label));
      return {ins.inserted, ins.id};
    }
    return {visited.resolve_ided(scratch).inserted,
            ShardedVisitedSet::kNoState};
  };

  for (std::uint64_t episode = 0; episode < options.sample.episodes;
       ++episode) {
    if (enforcer.probe() != StopReason::Complete || vetoed) break;
    Config cfg = ts.initial();
    auto [fresh, id] =
        intern(cfg, ShardedVisitedSet::kNoState, 0, "init");
    bool stop_run = false;
    for (std::uint64_t depth = 0; depth < kEpisodeStepCap; ++depth) {
      if (++probe_clock >= kBudgetCheckInterval) {
        probe_clock = 0;
        if (enforcer.probe() != StopReason::Complete) {
          stop_run = true;
          break;
        }
      }
      ts.successors_into(cfg, steps, want_labels);
      if (fresh) {
        // First visits claim a distinct state and see the visitor — the
        // same contract exhaustive drivers give, restricted to the covered
        // subgraph, so violation scanners and graph collectors work
        // unchanged.
        if (enforcer.claim() != StopReason::Complete) {
          stop_run = true;
          break;
        }
        result.stats.states += 1;
        result.stats.transitions += steps.size();
        if (steps.empty()) {
          (cfg.all_done(sys) ? result.stats.finals : result.stats.blocked) +=
              1;
        }
        if (!visitor(cfg, id, steps.steps())) {
          vetoed = true;
          break;
        }
      }
      if (steps.empty()) break;  // final or blocked: the episode is over

      // Group the buffer into per-thread runs (successors_into enumerates
      // thread by thread) and draw a thread, weighted by how rarely its
      // current site has executed; then draw within the thread, weighted the
      // same way — lang::successors enumerates memory nondeterminism
      // (reads-from, placement, CAS outcome) as separate steps, so this
      // second draw is the reads-from choice.
      const std::span<const Step> enabled = steps.steps();
      ranges.clear();
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (ranges.empty() || ranges.back().thread != enabled[i].thread) {
          ranges.push_back({enabled[i].thread, i, i + 1});
        } else {
          ranges.back().end = i + 1;
        }
      }
      const ThreadRange& chosen =
          ranges[weighted_draw(
              ranges.size(), hits,
              [&](std::size_t i) {
                return thread_site(ranges[i].thread, cfg.pc[ranges[i].thread]);
              },
              rng, weights)];
      // Rarity-weighted reads-from draw: the within-thread alternatives are
      // the memory-nondeterminism options (reads-from, placement, CAS
      // outcome) of one instruction, keyed (thread, pc, choice index) in
      // `choice_hits`.  A uniform draw keeps re-reading the latest write in
      // long mo sequences; inverse-hit-count weighting pushes episodes
      // towards the stale reads that distinguish weak behaviours.
      const std::size_t si =
          chosen.begin +
          weighted_draw(
              chosen.end - chosen.begin, choice_hits,
              [&](std::size_t c) {
                return choice_site(chosen.thread, cfg.pc[chosen.thread], c);
              },
              rng, weights);
      hits[thread_site(chosen.thread, cfg.pc[chosen.thread])] += 1;
      choice_hits[choice_site(chosen.thread, cfg.pc[chosen.thread],
                              si - chosen.begin)] += 1;
      Step& step = steps.steps()[si];
      Config after = std::move(step.after);
      std::tie(fresh, id) =
          intern(after, id, step.thread, std::move(step.label));
      cfg = std::move(after);
    }
    if (stop_run) break;
    result.stats.episodes += 1;
    if (vetoed) break;
  }

  result.stats.visited_bytes =
      options.trace ? options.trace->bytes() : visited.bytes();
  result.stop = enforcer.reason();
  if (result.stop == StopReason::Complete && !vetoed) {
    // The full episode budget ran without a verdict-forcing event: honest
    // sampling never claims completeness, so the run reports EpisodeCap
    // ("results are a lower bound").  A visitor veto stays Complete —
    // stopping was the visitor's decision, exactly as in the exhaustive
    // drivers.
    result.stop = StopReason::EpisodeCap;
  }
  return result;
}

}  // namespace rc11::engine
