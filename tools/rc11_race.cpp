// rc11-race — command-line driver: parse a program file and check it for
// RC11 data races (conflicting accesses, at least one non-atomic, unordered
// by happens-before).
//
// Usage:
//   rc11-race [options] program.rc11
//
// Options (see tools/cli_common.hpp for the flags shared by every tool):
//   --max-states N      exploration bound (default 1000000)
//   --threads N         exploration workers (0 = hardware, default 1)
//   --por               ample-set partial-order reduction; the reported race
//                       set is identical to an unreduced run's (ample steps
//                       neither synchronise nor conflict across threads)
//   --symmetry          thread-symmetry quotient + sleep-set pruning; the
//                       checker orbit-closes each race record, so the set
//                       again matches an unreduced run's
//   --rf-quotient       execution-graph quotient + sleep-set pruning; race
//                       clocks and summary cells are part of the quotient
//                       key, so the reported race set is exact without any
//                       pinning; rejected with --symmetry (v1), with
//                       --strategy sample and under the SC model
//   --strategy S        exhaustive (default), por, or sample[:N] — seeded
//                       random schedules; races found are real but the set
//                       is a lower bound, so a clean sampling run exits 3
//   --seed S            RNG seed for --strategy sample (default 0)
//   --stop-on-race      stop at the first race instead of collecting all
//   --stats             also print engine statistics
//   --json FILE         write a machine-readable summary (includes the full
//                       canonical race list, stable across --threads/--por/
//                       --symmetry/strategies)
//   --disassemble       print the compiled per-thread code first
//   --witness FILE      write the first witnessed race as a JSON witness
//                       whose final step performs the racing access (implies
//                       trace tracking; minimized before emission)
//   --replay FILE       re-execute a JSON witness against the program (with
//                       race tracking on — race witnesses replay only under
//                       the race-instrumented encoding); exit 0 iff every
//                       step replays
//   --deadline-ms MS / --mem-budget BYTES[K|M|G] resource budgets
//   --checkpoint FILE / --resume FILE  save/continue an interrupted run
//
// Exit status: 0 definitively race-free, 1 on usage/parse errors, 2 if a
// data race was found, 3 inconclusive (bound/budget/interrupt hit, or a
// clean sampling run).

#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "parser/parser.hpp"
#include "race/race.hpp"
#include "witness/witness.hpp"

namespace {

int usage() {
  std::cerr << "usage: rc11-race " << rc11::cli::kCommonUsage
            << " [--disassemble] [--stop-on-race] program.rc11\n";
  return rc11::cli::kExitUsage;
}

/// One race as deterministic JSON: the canonical key fields only (location
/// and both sites), never traces or dumps — CI byte-compares these lists
/// across thread counts and reductions.
rc11::witness::Json race_json(const rc11::race::ReportedRace& r) {
  using rc11::witness::Json;
  const auto side = [](const rc11::memsem::RaceAccess& a) {
    auto o = Json::object();
    o.set("thread", Json::integer(a.thread));
    o.set("pc", Json::integer(a.pc));
    o.set("access", Json::string(rc11::race::access_name(a.cat)));
    return o;
  };
  auto o = Json::object();
  o.set("location", Json::string(r.location));
  o.set("a", side(r.record.prior));
  o.set("b", side(r.record.current));
  o.set("what", Json::string(r.what));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rc11;

  std::string path;
  cli::CommonOptions common;
  bool disassemble = false;
  bool stop_on_race = false;

  for (int i = 1; i < argc; ++i) {
    switch (cli::parse_common_flag(argc, argv, i, common)) {
      case cli::FlagStatus::Consumed:
        continue;
      case cli::FlagStatus::Error:
        return usage();
      case cli::FlagStatus::NotMine:
        break;
    }
    const std::string arg = argv[i];
    if (arg == "--disassemble") {
      disassemble = true;
    } else if (arg == "--stop-on-race") {
      stop_on_race = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (const std::string err = cli::resolve_strategy(common); !err.empty()) {
    std::cerr << "rc11-race: " << err << "\n";
    return cli::kExitUsage;
  }

  try {
    auto program = parser::parse_file(path);
    // Race witnesses digest the race-instrumented encoding, so the system
    // the CLI replays/minimizes against must carry the flag too.
    {
      auto sem = program.sys.options();
      sem.race_detection = true;
      program.sys.set_options(sem);
    }

    if (!common.replay_path.empty()) {
      return cli::run_replay(program.sys, common);
    }

    if (disassemble) {
      std::cout << program.sys.disassemble() << "\n";
    }

    std::optional<engine::Checkpoint> resumed;
    cli::arm_run_control(common, resumed);
    race::RaceOptions opts;
    static_cast<engine::RunControl&>(opts) = common;
    opts.stop_on_race = stop_on_race;
    opts.track_traces = !common.witness_path.empty();

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = race::check(program.sys, opts);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "states:      " << result.stats.states << "\n"
              << "transitions: " << result.stats.transitions << "\n"
              << "races:       " << result.races.size() << "\n";
    if (common.stats) {
      cli::print_stats(result.stats, common, wall_s);
    }
    if (result.truncated) {
      std::cout << "WARNING: exploration stopped early — "
                << cli::describe_stop(result.stop)
                << "; the race set is a lower bound\n";
      cli::print_checkpoint_written(common);
    }

    for (const auto& r : result.races) {
      std::cout << "\nRACE: " << r.what << "\n";
      for (const auto& step : r.trace) {
        std::cout << "  " << step << "\n";
      }
    }

    if (!common.json_path.empty()) {
      auto summary = witness::Json::object();
      summary.set("tool", witness::Json::string("rc11-race"));
      summary.set("program", witness::Json::string(path));
      summary.set("strategy",
                  witness::Json::string(cli::strategy_name(common)));
      if (common.mode == engine::Strategy::Sample) {
        summary.set("seed",
                    witness::Json::integer(
                        static_cast<std::int64_t>(common.sample.seed)));
      }
      summary.set("truncated", witness::Json::boolean(result.truncated));
      summary.set("stop",
                  witness::Json::string(engine::to_string(result.stop)));
      auto races = witness::Json::array();
      for (const auto& r : result.races) races.push(race_json(r));
      summary.set("races", std::move(races));
      summary.set("stats", cli::stats_json(result.stats));
      cli::write_json_summary(summary, common.json_path);
    }

    if (result.racy()) {
      if (!common.witness_path.empty()) {
        const race::ReportedRace* witnessed = nullptr;
        for (const auto& r : result.races) {
          if (r.witness) {
            witnessed = &r;
            break;
          }
        }
        if (witnessed) {
          cli::write_witness(program.sys, *witnessed->witness,
                             common.witness_path);
        } else {
          std::cout << "no witness recorded (trace tracking was off)\n";
        }
      }
      return cli::kExitFail;
    }
    if (!common.witness_path.empty()) {
      std::cout << "no race found; " << common.witness_path
                << " not written\n";
    }
    // A clean sampling run is a lower bound, never a race-freedom proof.
    const bool definitive =
        !result.truncated && common.mode != engine::Strategy::Sample;
    return definitive ? cli::kExitOk : cli::kExitInconclusive;
  } catch (const std::exception& e) {
    std::cerr << "rc11-race: " << e.what() << "\n";
    return cli::kExitUsage;
  }
}
