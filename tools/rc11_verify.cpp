// rc11-verify — command-line Owicki-Gries outline checker: parse a program
// with an `outline { ... }` block and check the outline over the reachable
// state space (Sections 5.2-5.3 of the paper).
//
// Usage:
//   rc11-verify [options] program.rc11
//
// Options (see tools/cli_common.hpp for the flags shared by every tool):
//   --max-states N       exploration bound (default 1000000)
//   --threads N          exploration workers (0 = hardware, default 1;
//                        traces and witnesses work at every thread count)
//   --por                ample-set partial-order reduction (failures found
//                        are real; see og/proof_outline.hpp for the caveat)
//   --symmetry           thread-symmetry quotient + sleep-set pruning;
//                        obligations are checked at every orbit member, so
//                        the verdict and failed-obligation set are exact
//                        (see og/proof_outline.hpp); composes with --por,
//                        --threads, budgets and --checkpoint/--resume
//   --rf-quotient        execution-graph quotient + sleep-set pruning; every
//                        annotation's view footprint is pinned into the
//                        quotient key, so the verdict and failed-obligation
//                        set are exact (see og/proof_outline.hpp); composes
//                        with --por, --threads, budgets and --checkpoint/
//                        --resume; rejected with --symmetry (v1), with
//                        --strategy sample and under the SC model
//   --strategy S         coverage strategy: exhaustive (default), por, or
//                        sample[:N] — N seeded random schedules; failures
//                        found are real (exit 2, replayable witness), but a
//                        clean sampled run is never a proof (exit 3)
//   --seed S             RNG seed for --strategy sample (default 0)
//   --stats              also print the obligations actually evaluated (the
//                        rest were ruled out by read set), peak frontier /
//                        visited memory / POR savings
//   --json FILE          write a machine-readable run summary
//   --no-interference    skip the pairwise Owicki-Gries side condition
//   --all-failures       report every failed obligation, not just the first
//   --trace              include a counterexample run with each failure
//   --witness FILE       write the first failure as a JSON witness (implies
//                        --trace; minimized before emission)
//   --replay FILE        re-execute a JSON witness against the program
//                        instead of checking; exit 0 iff every step replays
//   --deadline-ms MS     wall-clock budget (0 = none)
//   --mem-budget BYTES   visited-set memory budget, optional K/M/G suffix
//   --checkpoint FILE    save a resumable checkpoint when the run stops early
//   --resume FILE        seed the run from a --checkpoint file (--por,
//                        --symmetry and --rf-quotient must match the
//                        checkpointed run)
//
// SIGINT/SIGTERM drain the workers: the tool still prints its partial
// report, writes --json/--checkpoint files, and exits 3.  RC11_FAULT
// (insert:N | stall:N:MS | mem:N) injects one fault for robustness testing.
//
// Exit status: 0 valid, 1 usage/parse errors, 2 outline invalid (or --replay
// diverged; failed obligations are definite even in a partial run), 3
// inconclusive (the enumeration stopped early and no failure was found).

#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "cli_common.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "witness/witness.hpp"

namespace {

int usage() {
  std::cerr << "usage: rc11-verify " << rc11::cli::kCommonUsage
            << " [--no-interference] [--all-failures] [--trace] "
               "program.rc11\n";
  return rc11::cli::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rc11;

  std::string path;
  cli::CommonOptions common;
  og::OutlineCheckOptions opts;
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
    if (arg == "--no-interference") {
      opts.check_interference = false;
    } else if (arg == "--all-failures") {
      opts.stop_at_first_failure = false;
    } else if (arg == "--trace") {
      opts.track_traces = true;
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
    std::cerr << "rc11-verify: " << err << "\n";
    return cli::kExitUsage;
  }

  if (!common.witness_path.empty()) {
    opts.track_traces = true;  // witnesses ride on the recorded parents
  }

  try {
    const auto program = parser::parse_file(path);
    if (!common.replay_path.empty()) {
      return cli::run_replay(program.sys, common);
    }
    std::optional<engine::Checkpoint> resumed;
    cli::arm_run_control(common, resumed);
    static_cast<engine::RunControl&>(opts) = common;
    if (!program.outline) {
      std::cerr << "rc11-verify: " << path << " has no outline { ... } block\n";
      return cli::kExitUsage;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto result =
        og::check_outline(program.sys, *program.outline, opts);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "states explored:     " << result.stats.states << "\n"
              << "obligations checked: " << result.obligations_checked << "\n";
    if (common.stats) {
      // Text only: --json stays byte-identical whatever the checker skips.
      std::cout << "obligations evaluated: " << result.obligations_evaluated
                << "\n";
      cli::print_stats(result.stats, common, wall_s);
    }

    // A failed obligation is a definite negative even when the enumeration
    // stopped early (the state it failed at is really reachable), so INVALID
    // wins over INCONCLUSIVE.
    const bool inconclusive = result.stop != engine::StopReason::Complete;
    if (!common.json_path.empty()) {
      auto summary = witness::Json::object();
      summary.set("tool", witness::Json::string("rc11-verify"));
      summary.set("program", witness::Json::string(path));
      summary.set("strategy",
                  witness::Json::string(cli::strategy_name(common)));
      if (common.mode == engine::Strategy::Sample) {
        summary.set("seed",
                    witness::Json::integer(
                        static_cast<std::int64_t>(common.sample.seed)));
      }
      summary.set("valid", witness::Json::boolean(result.valid));
      summary.set("inconclusive",
                  witness::Json::boolean(inconclusive && result.valid));
      summary.set("stop",
                  witness::Json::string(engine::to_string(result.stop)));
      summary.set("obligations_checked",
                  witness::Json::integer(static_cast<std::int64_t>(
                      result.obligations_checked)));
      summary.set("failures",
                  witness::Json::integer(
                      static_cast<std::int64_t>(result.failures.size())));
      summary.set("stats", cli::stats_json(result.stats));
      cli::write_json_summary(summary, common.json_path);
    }

    if (result.valid && inconclusive) {
      std::cout << "INCONCLUSIVE: outline check stopped early — "
                << cli::describe_stop(result.stop)
                << "; no failure found in the part examined\n";
      cli::print_checkpoint_written(common);
      return cli::kExitInconclusive;
    }
    if (result.valid) {
      std::cout << "outline VALID"
                << (opts.check_interference ? " (incl. interference freedom)"
                                            : "")
                << "\n";
      if (!common.witness_path.empty()) {
        std::cout << "no failures; " << common.witness_path
                  << " not written\n";
      }
      return cli::kExitOk;
    }
    std::cout << "outline INVALID — " << result.failures.size()
              << " failed obligation(s):\n";
    for (const auto& failure : result.failures) {
      std::cout << "  " << failure.obligation << "\n";
      if (!failure.trace.empty()) {
        std::cout << "  run:\n";
        for (const auto& step : failure.trace) {
          std::cout << "    " << step << "\n";
        }
      }
      std::cout << "  at configuration:\n";
      std::istringstream dump{failure.state_dump};
      std::string line;
      while (std::getline(dump, line)) {
        std::cout << "    " << line << "\n";
      }
    }
    if (!common.witness_path.empty()) {
      bool written = false;
      for (const auto& failure : result.failures) {
        if (!failure.witness) continue;
        cli::write_witness(program.sys, *failure.witness,
                           common.witness_path);
        written = true;
        break;
      }
      if (!written) {
        std::cout << "no witness recorded; " << common.witness_path
                  << " not written\n";
      }
    }
    return cli::kExitFail;
  } catch (const std::exception& e) {
    std::cerr << "rc11-verify: " << e.what() << "\n";
    return cli::kExitUsage;
  }
}
