#include "cli_common.hpp"

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

}  // namespace

const engine::CancelToken* install_signal_cancel() {
  std::signal(SIGINT, &handle_cancel_signal);
  std::signal(SIGTERM, &handle_cancel_signal);
  return &g_signal_cancel;
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

const char* strategy_name(const CommonOptions& opts) {
  if (opts.mode == engine::Strategy::Exhaustive && opts.por) return "por";
  return engine::to_string(opts.mode);
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
                 const engine::Reduction& reduction, double wall_s) {
  const auto per_state =
      stats.states ? stats.visited_bytes / stats.states : 0;
  std::cout << "peak frontier:  " << stats.peak_frontier << "\n"
            << "visited bytes:  " << stats.visited_bytes << " (" << per_state
            << " B/state)\n";
  if (reduction.por) {
    std::cout << "por reduced:    " << stats.por_reduced
              << " state(s) expanded with an ample set\n"
              << "por chained:    " << stats.por_chained
              << " local step(s) collapsed (states never visited)\n";
  }
  if (reduction.symmetry) {
    std::cout << "symmetry hits:  " << stats.symmetry_hits
              << " orbit-duplicate arrival(s) merged\n"
              << "sleep skips:    " << stats.sleep_set_skips
              << " step(s) pruned by sleep sets\n";
    if (stats.states != 0) {
      // Arrivals at already-interned representatives under a non-identity
      // permutation count the orbit mass the quotient absorbed; the ratio
      // understates the saving (pruned subtrees never arrive at all).
      const double ratio =
          static_cast<double>(stats.states + stats.symmetry_hits) /
          static_cast<double>(stats.states);
      std::cout << "quotient ratio: " << ratio
                << "x orbit arrivals per visited state (lower bound)\n";
    }
  }
  if (reduction.rf_quotient) {
    // rf_merges counts concrete arrivals absorbed into an already-visited
    // quotient class; the engine only tells concrete-new arrivals apart when
    // a trace sink is attached, so the counter reads 0 in trace-free runs
    // (the visited-state count is the reduction measure either way).
    std::cout << "rf merges:      " << stats.rf_merges
              << " concrete arrival(s) merged into visited classes\n"
              << "sleep skips:    " << stats.sleep_set_skips
              << " step(s) pruned by sleep sets\n";
  }
  if (stats.episodes != 0) {
    std::cout << "episodes:       " << stats.episodes << "\n";
    if (wall_s > 0) {
      std::cout << "episodes/s:     "
                << static_cast<std::uint64_t>(
                       static_cast<double>(stats.episodes) / wall_s)
                << "\n";
    }
    std::cout << "coverage:       " << stats.states
              << " distinct state(s) crossed (sampled lower bound)\n";
  }
}

witness::Json stats_json(const engine::ExploreStats& stats) {
  auto j = witness::Json::object();
  j.set("states", witness::Json::integer(static_cast<std::int64_t>(stats.states)));
  j.set("transitions",
        witness::Json::integer(static_cast<std::int64_t>(stats.transitions)));
  j.set("finals", witness::Json::integer(static_cast<std::int64_t>(stats.finals)));
  j.set("blocked",
        witness::Json::integer(static_cast<std::int64_t>(stats.blocked)));
  j.set("peak_frontier",
        witness::Json::integer(static_cast<std::int64_t>(stats.peak_frontier)));
  j.set("visited_bytes",
        witness::Json::integer(static_cast<std::int64_t>(stats.visited_bytes)));
  if (stats.por_reduced != 0 || stats.por_chained != 0) {
    j.set("por_reduced",
          witness::Json::integer(static_cast<std::int64_t>(stats.por_reduced)));
    j.set("por_chained",
          witness::Json::integer(static_cast<std::int64_t>(stats.por_chained)));
  }
  if (stats.symmetry_hits != 0 || stats.sleep_set_skips != 0) {
    j.set("symmetry_hits",
          witness::Json::integer(
              static_cast<std::int64_t>(stats.symmetry_hits)));
    j.set("sleep_set_skips",
          witness::Json::integer(
              static_cast<std::int64_t>(stats.sleep_set_skips)));
  }
  if (stats.rf_merges != 0) {
    j.set("rf_merges",
          witness::Json::integer(static_cast<std::int64_t>(stats.rf_merges)));
  }
  if (stats.episodes != 0) {
    j.set("episodes",
          witness::Json::integer(static_cast<std::int64_t>(stats.episodes)));
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
