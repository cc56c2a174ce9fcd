// rc11lib/engine/sample.cpp
//
// The Strategy::Sample reachability driver: seeded, feedback-guided random
// schedules in the C11Tester style (see sample.hpp for the design and
// composition notes).  Episodes are strictly sequential — the guided bias
// makes every episode depend on all earlier ones, and same seed ==> same
// run, byte for byte, is the property CI enforces.

#include "engine/sample.hpp"

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
  std::unordered_map<std::uint64_t, std::uint64_t> hits;
  // Second guided layer: executions per (thread, pc, within-thread choice
  // index) — the reads-from / placement / CAS alternative drawn once a
  // thread won.  Kept in its own map so the thread-level bias above is
  // unchanged; the FNV fold is deterministic, and a (harmless, improbable)
  // key collision only perturbs a weight, never a verdict.
  std::unordered_map<std::uint64_t, std::uint64_t> choice_hits;
  const auto choice_site = [](lang::ThreadId thread, std::uint32_t pc,
                              std::size_t choice) noexcept {
    std::uint64_t key = 0xCBF29CE484222325ULL;
    key = (key ^ thread) * 0x100000001B3ULL;
    key = (key ^ pc) * 0x100000001B3ULL;
    key = (key ^ choice) * 0x100000001B3ULL;
    return key;
  };
  const std::uint64_t step_cap = options.sample.max_episode_steps != 0
                                     ? options.sample.max_episode_steps
                                     : kDefaultEpisodeStepCap;

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
    for (std::uint64_t depth = 0; depth < step_cap; ++depth) {
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
      // current site has executed; then draw uniformly within the thread —
      // lang::successors enumerates memory nondeterminism (reads-from,
      // placement, CAS outcome) as separate steps, so this second draw is
      // the reads-from choice.
      const std::span<const Step> enabled = steps.steps();
      ranges.clear();
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (ranges.empty() || ranges.back().thread != enabled[i].thread) {
          ranges.push_back({enabled[i].thread, i, i + 1});
        } else {
          ranges.back().end = i + 1;
        }
      }
      std::size_t pick = 0;
      if (ranges.size() > 1) {
        weights.clear();
        std::uint64_t total = 0;
        for (const ThreadRange& r : ranges) {
          std::uint64_t w = 1;
          if (options.sample.guided) {
            const std::uint64_t site =
                (static_cast<std::uint64_t>(r.thread) << 32) |
                static_cast<std::uint64_t>(cfg.pc[r.thread]);
            const auto it = hits.find(site);
            const std::uint64_t seen = it == hits.end() ? 0 : it->second;
            w = kWeightScale / (1 + seen);
            if (w == 0) w = 1;  // floor: every enabled thread stays drawable
          }
          weights.push_back(w);
          total += w;
        }
        std::uint64_t r = rng.below(total);
        while (r >= weights[pick]) {
          r -= weights[pick];
          pick += 1;
        }
      }
      const ThreadRange& chosen = ranges[pick];
      const std::size_t span = chosen.end - chosen.begin;
      std::size_t si = chosen.begin;
      if (span > 1) {
        if (options.sample.guided) {
          // Rarity-weighted reads-from draw: the within-thread alternatives
          // are the memory-nondeterminism options (reads-from, placement,
          // CAS outcome) of one instruction, keyed (thread, pc, choice
          // index) in `choice_hits`.  A uniform draw keeps re-reading the
          // latest write in long mo sequences; inverse-hit-count weighting
          // pushes episodes towards the stale reads that distinguish weak
          // behaviours.  Same draw discipline as the thread draw (one
          // seeded rng.below over summed weights), so seed determinism is
          // untouched.
          weights.clear();
          std::uint64_t total = 0;
          for (std::size_t c = 0; c < span; ++c) {
            const auto it = choice_hits.find(
                choice_site(chosen.thread, cfg.pc[chosen.thread], c));
            const std::uint64_t seen =
                it == choice_hits.end() ? 0 : it->second;
            std::uint64_t w = kWeightScale / (1 + seen);
            if (w == 0) w = 1;  // floor: every alternative stays drawable
            weights.push_back(w);
            total += w;
          }
          std::uint64_t r = rng.below(total);
          std::size_t c = 0;
          while (r >= weights[c]) {
            r -= weights[c];
            c += 1;
          }
          si = chosen.begin + c;
        } else {
          si = chosen.begin + static_cast<std::size_t>(rng.below(span));
        }
      }
      if (options.sample.guided) {
        const std::uint64_t site =
            (static_cast<std::uint64_t>(chosen.thread) << 32) |
            static_cast<std::uint64_t>(cfg.pc[chosen.thread]);
        hits[site] += 1;
        choice_hits[choice_site(chosen.thread, cfg.pc[chosen.thread],
                                si - chosen.begin)] += 1;
      }
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
