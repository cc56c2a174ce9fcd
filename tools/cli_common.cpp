#include "cli_common.hpp"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>

namespace rc11::cli {

namespace {

/// The process-wide cancellation token tripped by SIGINT/SIGTERM.
engine::CancelToken g_signal_cancel;

void handle_cancel_signal(int sig) {
  // Only async-signal-safe work here: a relaxed atomic store plus re-arming
  // the default disposition so a second signal terminates immediately.
  g_signal_cancel.cancel();
  std::signal(sig, SIG_DFL);
}

/// Whether --stats prints `c`'s line for a run under `reduction`.
bool shown(const engine::StatCounter& c, const engine::ExploreStats& stats,
           const engine::Reduction& reduction) {
  switch (c.line.shown) {
    case engine::Shown::Never: return false;
    case engine::Shown::Always: return true;
    case engine::Shown::Por: return reduction.por;
    case engine::Shown::Symmetry: return reduction.symmetry;
    case engine::Shown::Quotient:
      return reduction.symmetry || reduction.rf_quotient;
    case engine::Shown::RfQuotient: return reduction.rf_quotient;
    case engine::Shown::NonZero: return stats.*c.member != 0;
  }
  return false;
}

/// Whether --json writes the counters of `group`: always, or when any of
/// them is non-zero.
bool written(engine::InJson group, const engine::ExploreStats& stats) {
  if (group == engine::InJson::Always) return true;
  for (const engine::StatCounter& c : engine::kStatCounters) {
    if (c.json == group && stats.*c.member != 0) return true;
  }
  return false;
}

}  // namespace

void arm_run_control(CommonOptions& opts,
                     std::optional<engine::Checkpoint>& resumed) {
  opts.fault = engine::FaultPlan::from_env();
  std::signal(SIGINT, &handle_cancel_signal);
  std::signal(SIGTERM, &handle_cancel_signal);
  opts.cancel = &g_signal_cancel;
  if (opts.resume_path.empty()) return;
  resumed = engine::load_checkpoint(opts.resume_path);
  std::cout << "resuming from " << opts.resume_path << " ("
            << resumed->states.size()
            << " state(s), stopped: " << engine::to_string(resumed->stop)
            << ")\n";
  opts.resume = &*resumed;
}

void print_checkpoint_written(const CommonOptions& opts) {
  if (opts.checkpoint_path.empty()) return;
  std::cout << "checkpoint written to " << opts.checkpoint_path
            << " (continue with --resume)\n";
}

bool parse_bytes(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t mult = 1;
  switch (s.back()) {
    case 'k': case 'K': mult = std::uint64_t{1} << 10; break;
    case 'm': case 'M': mult = std::uint64_t{1} << 20; break;
    case 'g': case 'G': mult = std::uint64_t{1} << 30; break;
    default: break;
  }
  const std::string digits = mult == 1 ? s : s.substr(0, s.size() - 1);
  std::uint64_t value = 0;
  if (!parse_num(digits, value)) return false;
  if (value > std::numeric_limits<std::uint64_t>::max() / mult) return false;
  out = value * mult;
  return true;
}

std::string describe_stop(engine::StopReason stop) {
  switch (stop) {
    case engine::StopReason::Complete:
      return "the state space was exhausted";
    case engine::StopReason::StateCap:
      return "the state cap was reached (raise --max-states)";
    case engine::StopReason::MemCap:
      return "the visited-set memory budget was exhausted (raise --mem-budget)";
    case engine::StopReason::Deadline:
      return "the wall-clock deadline expired (raise --deadline-ms)";
    case engine::StopReason::Interrupted:
      return "the run was interrupted (SIGINT/SIGTERM)";
    case engine::StopReason::InjectedFault:
      return "an injected fault stopped the run (RC11_FAULT)";
    case engine::StopReason::EpisodeCap:
      return "the sampling episode budget ran out (raise --strategy "
             "sample:N or vary --seed)";
  }
  return "unknown stop reason";
}

FlagStatus parse_common_flag(int argc, char** argv, int& i,
                             CommonOptions& out) {
  const std::string arg = argv[i];
  const auto value = [&](std::string& dst) {
    if (++i >= argc) return false;
    dst = argv[i];
    return true;
  };
  if (arg == "--max-states") {
    return ++i < argc && parse_num(argv[i], out.max_states)
               ? FlagStatus::Consumed
               : FlagStatus::Error;
  }
  if (arg == "--threads") {
    if (++i >= argc || !parse_num(argv[i], out.num_threads)) {
      return FlagStatus::Error;
    }
    if (out.num_threads > kMaxThreads) {
      std::cerr << "error: --threads " << out.num_threads
                << " is above the limit of " << kMaxThreads
                << " worker threads\n";
      return FlagStatus::Error;
    }
    return FlagStatus::Consumed;
  }
  bool* const reduction = arg == "--por"           ? &out.por
                          : arg == "--symmetry"    ? &out.symmetry
                          : arg == "--rf-quotient" ? &out.rf_quotient
                                                   : nullptr;
  if (reduction != nullptr) {
    *reduction = true;
    return FlagStatus::Consumed;
  }
  if (arg == "--stats") {
    out.stats = true;
    return FlagStatus::Consumed;
  }
  if (arg == "--json") {
    return value(out.json_path) ? FlagStatus::Consumed : FlagStatus::Error;
  }
  if (arg == "--witness") {
    return value(out.witness_path) ? FlagStatus::Consumed : FlagStatus::Error;
  }
  if (arg == "--replay") {
    return value(out.replay_path) ? FlagStatus::Consumed : FlagStatus::Error;
  }
  if (arg == "--deadline-ms") {
    return ++i < argc && parse_num(argv[i], out.deadline_ms)
               ? FlagStatus::Consumed
               : FlagStatus::Error;
  }
  if (arg == "--mem-budget") {
    return ++i < argc && parse_bytes(argv[i], out.max_visited_bytes)
               ? FlagStatus::Consumed
               : FlagStatus::Error;
  }
  if (arg == "--checkpoint") {
    return value(out.checkpoint_path) ? FlagStatus::Consumed
                                      : FlagStatus::Error;
  }
  if (arg == "--resume") {
    return value(out.resume_path) ? FlagStatus::Consumed : FlagStatus::Error;
  }
  if (arg == "--strategy") {
    return ++i < argc && engine::parse_strategy(argv[i], out)
               ? FlagStatus::Consumed
               : FlagStatus::Error;
  }
  if (arg == "--seed") {
    if (++i >= argc || !parse_num(argv[i], out.sample.seed)) {
      return FlagStatus::Error;
    }
    out.seed_set = true;
    return FlagStatus::Consumed;
  }
  return FlagStatus::NotMine;
}

std::string resolve_strategy(const CommonOptions& opts) {
  std::string conflict = engine::reduction_conflict(
      opts, !opts.checkpoint_path.empty(), !opts.resume_path.empty());
  if (conflict.empty() && opts.seed_set &&
      opts.mode != engine::Strategy::Sample) {
    conflict = "--seed only applies to --strategy sample";
  }
  return conflict;
}

witness::Json json_header(
    const char* tool,
    std::initializer_list<std::pair<const char*, std::string_view>> programs,
    const CommonOptions& opts) {
  auto j = witness::Json::object();
  j.set("tool", witness::Json::string(tool));
  for (const auto& [key, path] : programs) {
    j.set(key, witness::Json::string(std::string(path)));
  }
  // "por" names an exhaustive run with --por, however it was spelled.
  const bool por = opts.mode == engine::Strategy::Exhaustive && opts.por;
  j.set("strategy",
        witness::Json::string(por ? "por" : engine::to_string(opts.mode)));
  if (opts.mode == engine::Strategy::Sample) {
    j.set("seed", count(opts.sample.seed));
  }
  return j;
}

int run_replay(const lang::System& sys, const CommonOptions& opts) {
  const auto w = witness::load(opts.replay_path);
  const auto r = witness::replay(sys, w);
  if (r.ok) {
    std::cout << "replay OK: " << w.steps.size()
              << " step(s) re-executed, final digest matches\n";
    return kExitOk;
  }
  std::cout << "replay FAILED after " << r.steps_applied
            << " step(s): " << r.error << "\n";
  return kExitFail;
}

void print_stats(const engine::ExploreStats& stats,
                 const engine::Reduction& reduction, double wall_s,
                 const char* indent) {
  // Every line starts with its label, underscores spelled as spaces,
  // padded to one column.
  const auto line = [indent](std::string label) -> std::ostream& {
    std::replace(label.begin(), label.end(), '_', ' ');
    label += ':';
    label.resize(std::max<std::size_t>(label.size() + 1, 16), ' ');
    return std::cout << indent << label;
  };
  for (const engine::StatCounter& c : engine::kStatCounters) {
    if (!shown(c, stats, reduction)) continue;
    const std::uint64_t value = stats.*c.member;
    line(c.line.label != nullptr ? c.line.label : c.key) << value;
    if (c.line.per_state) {
      std::cout << " (" << (stats.states ? value / stats.states : 0) << " "
                << c.line.note << ")";
    } else if (*c.line.note != '\0') {
      std::cout << " " << c.line.note;
    }
    std::cout << "\n";
  }
  if (reduction.symmetry && stats.states != 0) {
    // Arrivals at already-interned representatives under a non-identity
    // permutation count the orbit mass the quotient absorbed; the ratio
    // understates the saving (pruned subtrees never arrive at all).
    const double ratio =
        static_cast<double>(stats.states + stats.symmetry_hits) /
        static_cast<double>(stats.states);
    line("quotient ratio")
        << ratio << "x orbit arrivals per visited state (lower bound)\n";
  }
  if (stats.episodes != 0) {
    if (wall_s > 0) {
      line("episodes/s") << static_cast<std::uint64_t>(
                                static_cast<double>(stats.episodes) / wall_s)
                         << "\n";
    }
    line("coverage") << stats.states
                     << " distinct state(s) crossed (sampled lower bound)\n";
  }
}

witness::Json stats_json(const engine::ExploreStats& stats) {
  auto j = witness::Json::object();
  for (const engine::StatCounter& c : engine::kStatCounters) {
    if (written(c.json, stats)) {
      j.set(c.key, count(stats.*c.member));
    }
  }
  return j;
}

void write_json_summary(const witness::Json& summary, const std::string& path) {
  std::ofstream out{path};
  out << summary.dump() << "\n";
  std::cout << "json summary written to " << path << "\n";
}

void write_witness(const lang::System& sys, const witness::Witness& w,
                   const std::string& path) {
  const auto minimized = witness::minimize(sys, w);
  witness::save(minimized, path);
  std::cout << "witness (" << minimized.steps.size()
            << " step(s)) written to " << path << "\n";
}

}  // namespace rc11::cli
