// rc11-run — command-line driver: parse a program file, exhaustively explore
// its RC11 RAR behaviours and print the final outcome set.
//
// Usage:
//   rc11-run [options] program.rc11
//
// Options (see tools/cli_common.hpp for the flags shared by every tool):
//   --max-states N      exploration bound (default 1000000)
//   --threads N         exploration workers (0 = hardware, default 1)
//   --por               ample-set partial-order reduction (sound for the
//                       outcome set; composes with --threads and --witness)
//   --symmetry          thread-symmetry quotient + sleep-set pruning for
//                       programs with interchangeable threads (identical
//                       program text modulo thread id); exact for verdicts,
//                       outcomes and --invariant violations, composes with
//                       --por/--threads/budgets/--checkpoint; a sound no-op
//                       when no threads are interchangeable
//   --rf-quotient       execution-graph quotient + sleep-set pruning: states
//                       are keyed by canonical reads-from/modification-order
//                       data plus per-thread progress, merging configurations
//                       that differ only in dead view metadata; exact for
//                       verdicts, outcome sets and --invariant violations
//                       (the invariant's view footprint is pinned into the
//                       key); composes with --por/--threads/budgets/
//                       --checkpoint; rejected with --symmetry (v1), with
//                       --strategy sample and under the SC model
//   --strategy S        coverage strategy: exhaustive (default), por (same
//                       as --por), or sample[:N] — N seeded random schedules
//                       (episodes) instead of enumeration; results are a
//                       lower bound and the run exits 3 unless a violation
//                       is found (exit 2, with a replayable witness)
//   --seed S            RNG seed for --strategy sample (default 0); same
//                       program + flags + seed reproduces the run exactly
//   --stats             also print peak frontier / visited memory / POR savings
//   --json FILE         write a machine-readable run summary
//   --disassemble       print the compiled per-thread code first
//   --no-ctview         ablation A1: disable cross-component view transfer
//   --no-covered        ablation A2: disable covered-set enforcement
//   --raw-timestamps    ablation A3: hash raw rational timestamps
//   --invariant EXPR    check an assertion (outline grammar) at every state
//   --witness FILE      write the first violation as a JSON witness (implies
//                       trace tracking; minimized before emission)
//   --replay FILE       re-execute a JSON witness against the program instead
//                       of exploring; exit 0 iff every step replays
//   --deadline-ms MS    wall-clock budget; exceeded runs stop with a partial
//                       report (0 = none)
//   --mem-budget BYTES  visited-set memory budget, with optional K/M/G
//                       suffix (0 = unlimited)
//   --checkpoint FILE   if the run stops early (budget, Ctrl-C, fault),
//                       save a resumable checkpoint here
//   --resume FILE       seed the run from a checkpoint saved by --checkpoint
//                       (--por, --symmetry and --rf-quotient must match the
//                       checkpointed run)
//
// SIGINT/SIGTERM drain the workers: the tool still prints its partial
// report, writes --json/--checkpoint files, and exits 3.  RC11_FAULT
// (insert:N | stall:N:MS | mem:N) injects one fault for robustness testing.
//
// Exit status: 0 on success, 1 on usage/parse errors, 2 if an --invariant
// violation was found or a --replay diverged, 3 if exploration stopped early
// for any reason (bound, budget, deadline, interrupt, injected fault).

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "explore/dot.hpp"
#include "explore/explorer.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "witness/witness.hpp"

namespace {

int usage() {
  std::cerr << "usage: rc11-run " << rc11::cli::kCommonUsage
            << " [--disassemble] [--no-ctview] [--no-covered] "
               "[--raw-timestamps] [--dot FILE] [--invariant EXPR] "
               "program.rc11\n";
  return rc11::cli::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rc11;

  std::string path;
  cli::CommonOptions common;
  memsem::SemanticsOptions sem;
  bool disassemble = false;
  std::string dot_path;
  std::string invariant_src;

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
    } else if (arg == "--no-ctview") {
      sem.cross_component_view_transfer = false;
    } else if (arg == "--no-covered") {
      sem.enforce_covered = false;
    } else if (arg == "--raw-timestamps") {
      sem.canonical_timestamps = false;
    } else if (arg == "--dot") {
      if (++i >= argc) return usage();
      dot_path = argv[i];
    } else if (arg == "--invariant") {
      if (++i >= argc) return usage();
      invariant_src = argv[i];
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
    std::cerr << "rc11-run: " << err << "\n";
    return cli::kExitUsage;
  }

  try {
    auto program = parser::parse_file(path);
    program.sys.set_options(sem);

    if (!common.replay_path.empty()) {
      return cli::run_replay(program.sys, common);
    }

    if (disassemble) {
      std::cout << program.sys.disassemble() << "\n";
    }

    std::optional<engine::Checkpoint> resumed;
    cli::arm_run_control(common, resumed);
    explore::ExploreOptions opts;
    static_cast<engine::RunControl&>(opts) = common;

    explore::Invariant invariant;
    if (!invariant_src.empty()) {
      const auto assertion = parser::parse_assertion(program, invariant_src);
      if (common.rf_quotient) {
        // Pin the invariant's view footprint into the quotient key so its
        // verdict is a function of the key (class-invariant).  Parsed
        // assertions are built from the footprinted factories, so an
        // unknown footprint cannot arise from the grammar — guard anyway.
        const auto& fp = assertion.footprint();
        if (fp.everything) {
          std::cerr << "rc11-run: --rf-quotient cannot check this "
                       "--invariant: its view footprint is unknown\n";
          return cli::kExitUsage;
        }
        for (const auto& e : fp.entries) opts.rf_pins.entries.push_back(e);
      }
      invariant = [assertion, invariant_src](
                      const lang::System& s,
                      const lang::Config& c) -> std::optional<std::string> {
        if (assertion.eval(s, c)) return std::nullopt;
        return "invariant " + invariant_src + " violated";
      };
      // A witness needs parent links; traces are how the explorer builds them.
      if (!common.witness_path.empty()) opts.track_traces = true;
    }

    if (!dot_path.empty()) {
      // The full graph, whatever the run's reductions and budgets.
      refinement::GraphOptions full;
      full.max_states = common.max_states;
      full.num_threads = common.num_threads;
      full.want_labels = true;
      const auto graph = refinement::build_graph(program.sys, full);
      std::ofstream out{dot_path};
      out << explore::to_dot(program.sys, graph);
      std::cout << "state graph (" << graph.num_states()
                << " states) written to " << dot_path << "\n";
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = explore::explore(program.sys, opts, invariant);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "states:      " << result.stats.states << "\n"
              << "transitions: " << result.stats.transitions << "\n"
              << "finals:      " << result.stats.finals << "\n"
              << "blocked:     " << result.stats.blocked << "\n";
    if (common.stats) {
      cli::print_stats(result.stats, common, wall_s);
    }
    if (result.truncated) {
      std::cout << "WARNING: exploration stopped early — "
                << cli::describe_stop(result.stop)
                << "; results are a lower bound\n";
      cli::print_checkpoint_written(common);
    }

    // Print the outcome set over all registers, in declaration order.
    std::vector<lang::Reg> regs;
    std::vector<std::string> names;
    for (lang::ThreadId t = 0; t < program.sys.num_threads(); ++t) {
      for (lang::RegId r = 0; r < program.sys.num_regs(t); ++r) {
        regs.push_back(lang::Reg{t, r});
        names.push_back(program.sys.reg_name(t, r));
      }
    }
    const auto outcomes = explore::final_register_values(program.sys, result, regs);
    std::cout << "\nfinal register outcomes (" << outcomes.size() << "):\n";
    for (const auto& tuple : outcomes) {
      std::cout << "  ";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        std::cout << (i ? ", " : "") << names[i] << "=" << tuple[i];
      }
      std::cout << "\n";
    }

    if (!common.json_path.empty()) {
      auto summary = witness::Json::object();
      summary.set("tool", witness::Json::string("rc11-run"));
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
      summary.set("violations",
                  witness::Json::integer(
                      static_cast<std::int64_t>(result.violations.size())));
      summary.set("outcomes", witness::Json::integer(
                                  static_cast<std::int64_t>(outcomes.size())));
      summary.set("stats", cli::stats_json(result.stats));
      cli::write_json_summary(summary, common.json_path);
    }

    if (!result.violations.empty()) {
      const auto& v = result.violations.front();
      std::cout << "\nVIOLATION: " << v.what << "\n";
      for (const auto& step : v.trace) {
        std::cout << "  " << step << "\n";
      }
      if (!common.witness_path.empty()) {
        if (v.witness) {
          cli::write_witness(program.sys, *v.witness, common.witness_path);
        } else {
          std::cout << "no witness recorded (trace tracking was off)\n";
        }
      }
      return cli::kExitFail;
    }
    if (!common.witness_path.empty()) {
      std::cout << "no violation found; " << common.witness_path
                << " not written\n";
    }
    return result.truncated ? cli::kExitInconclusive : cli::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "rc11-run: " << e.what() << "\n";
    return cli::kExitUsage;
  }
}
