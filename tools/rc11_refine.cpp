// rc11-refine — command-line contextual-refinement checker: given two
// programs with *identical client parts* (same client variables and client
// registers, in the same order), decide whether the concrete program
// refines the abstract one per the paper's Section 6.
//
// Usage:
//   rc11-refine [options] abstract.rc11 concrete.rc11
//
// Options (see tools/cli_common.hpp for the flags shared by every tool):
//   --max-states N    per-system exploration bound (default 1000000)
//   --threads N       workers for graph construction and client projection
//                     (0 = hardware concurrency, default 1)
//   --por             client-invisible ample reduction while building the
//                     two state graphs (graph edges stay single steps, so
//                     counterexamples replay unchanged)
//   --symmetry        thread-symmetry quotient of the trace-inclusion
//                     product (see refinement.hpp); implies --trace-only
//                     (the Def. 8 simulation fixpoint is not quotiented);
//                     verdicts and witnesses are unchanged, only the
//                     product-node count shrinks
//   --rf-quotient     rejected by the library: the refinement checkers
//                     compare client projections across two systems, which
//                     the execution-graph quotient does not relate
//   --strategy S      coverage strategy: exhaustive (default), por, or
//                     sample[:N].  Sampling covers only the *concrete*
//                     graph with N seeded random schedules (the abstract
//                     graph — the specification — is always exhaustive) and
//                     implies --trace-only: a violation found is definite
//                     (exit 2, replayable witness); a clean run is a lower
//                     bound (exit 3)
//   --seed S          RNG seed for --strategy sample (default 0)
//   --stats           also print each graph's size, reduction and stop
//                     reason, the graph states built in the run, and the
//                     simulation's fixpoint iterations
//   --json FILE       write a machine-readable run summary
//   --trace-only      skip the Def. 8 simulation, run only trace inclusion
//   --witness FILE    write the counterexample run (a run of the *concrete*
//                     program) as a JSON witness, minimized before emission
//   --replay FILE     re-execute a JSON witness against the concrete program
//                     instead of checking; exit 0 iff every step replays
//   --deadline-ms MS  wall-clock budget *per graph build* (0 = none)
//   --mem-budget B    visited-set memory budget per graph build, optional
//                     K/M/G suffix (0 = unlimited)
//
// --checkpoint/--resume are rejected: a refinement check builds two state
// graphs per run, so a single checkpoint file would be ambiguous.
// SIGINT/SIGTERM drain whichever graph build is running; the tool still
// prints its partial report and exits 3.  RC11_FAULT injects faults.
//
// The abstract program typically uses abstract objects (lock/stack
// declarations); the concrete one inlines an implementation over library
// variables and `reg library` registers.  Exit status: 0 refines, 1 usage /
// parse errors, 2 refinement fails (or --replay diverged), 3 inconclusive
// (truncated).

#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "witness/witness.hpp"

namespace {

int usage() {
  std::cerr << "usage: rc11-refine " << rc11::cli::kCommonUsage
            << " [--trace-only] abstract.rc11 concrete.rc11\n";
  return rc11::cli::kExitUsage;
}

/// A check's stdout verdict.  A check that never ran (a graph build stopped
/// early) neither holds nor fails.
const char* verdict(bool holds, bool refuted) {
  if (holds) return "holds";
  return refuted ? "fails" : "inconclusive";
}

/// One --stats line for a graph: what its reachability pass reports.
void print_graph_stats(const char* which, const rc11::refinement::StateGraph& g,
                       bool por) {
  std::cout << which << " graph: " << g.stats.states << " states, "
            << g.stats.transitions << " transitions, ";
  if (por) std::cout << g.stats.por_reduced << " por reduced, ";
  std::cout << "stop " << rc11::engine::to_string(g.stop) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rc11;

  std::string abs_path;
  std::string conc_path;
  cli::CommonOptions common;
  bool trace_only = false;

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
    if (arg == "--trace-only") {
      trace_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (abs_path.empty()) {
      abs_path = arg;
    } else if (conc_path.empty()) {
      conc_path = arg;
    } else {
      return usage();
    }
  }
  if (abs_path.empty() || conc_path.empty()) return usage();
  if (const std::string err = cli::resolve_strategy(common); !err.empty()) {
    std::cerr << "rc11-refine: " << err << "\n";
    return cli::kExitUsage;
  }
  if (common.mode == engine::Strategy::Sample && !trace_only) {
    // The Def. 8 simulation fixpoint needs the full concrete edge relation
    // (missing edges would let pairs survive vacuously); the trace-inclusion
    // game is the checker that stays sound on a sampled concrete subgraph.
    std::cout << "note: --strategy sample implies --trace-only (the Def. 8 "
                 "simulation needs the complete concrete graph)\n";
    trace_only = true;
  }
  if (common.symmetry && !trace_only) {
    // Only the trace-inclusion product is quotiented (see
    // refinement::SimulationOptions for why the fixpoint is not).
    std::cout << "note: --symmetry implies --trace-only (the Def. 8 "
                 "simulation fixpoint is not quotiented)\n";
    trace_only = true;
  }
  if (!common.checkpoint_path.empty() || !common.resume_path.empty()) {
    std::cerr << "rc11-refine: --checkpoint/--resume are not supported here "
                 "(a refinement check builds two state graphs per run, so a "
                 "single checkpoint file is ambiguous); use --deadline-ms / "
                 "--mem-budget to bound the run instead\n";
    return cli::kExitUsage;
  }

  try {
    std::optional<engine::Checkpoint> resumed;
    cli::arm_run_control(common, resumed);
    refinement::SimulationOptions sim_opts;
    static_cast<engine::RunControl&>(sim_opts) = common;
    refinement::TraceInclusionOptions trace_opts;
    static_cast<engine::RunControl&>(trace_opts) = common;

    const auto abs = parser::parse_file(abs_path);
    const auto conc = parser::parse_file(conc_path);

    if (!common.replay_path.empty()) {
      return cli::run_replay(conc.sys, common);
    }

    bool refines = true;
    bool refuted = false;
    bool inconclusive = false;
    std::optional<witness::Witness> counterexample;
    auto summary = witness::Json::object();
    summary.set("tool", witness::Json::string("rc11-refine"));
    summary.set("abstract", witness::Json::string(abs_path));
    summary.set("concrete", witness::Json::string(conc_path));
    summary.set("strategy",
                witness::Json::string(cli::strategy_name(common)));
    if (common.mode == engine::Strategy::Sample) {
      summary.set("seed", witness::Json::integer(
                              static_cast<std::int64_t>(common.sample.seed)));
    }

    // Both games run on one graph pair, built under the options of the
    // first game played (they agree on everything a build reads).
    const auto pair =
        trace_only
            ? refinement::build_graph_pair(abs.sys, conc.sys, trace_opts)
            : refinement::build_graph_pair(abs.sys, conc.sys, sim_opts);
    if (common.stats) {
      print_graph_stats("abstract", pair.abs, common.por);
      print_graph_stats("concrete", pair.conc, common.por);
      std::cout << "graph states built: " << refinement::graph_states_built()
                << "\n";
    }

    if (!trace_only) {
      const auto sim = refinement::play_forward_simulation(pair);
      std::cout << "forward simulation (Def. 8):  "
                << verdict(sim.holds, sim.refuted()) << "  [abs "
                << sim.abstract_states << " states, conc "
                << sim.concrete_states << " states, " << sim.surviving_pairs
                << "/" << sim.candidate_pairs << " pairs survive]\n";
      if (common.stats) {
        std::cout << "  refinement iterations: " << sim.refinement_iterations
                  << "\n";
      }
      if (!sim.holds) {
        std::cout << "  diagnosis: " << sim.diagnosis << "\n";
        for (const auto& step : sim.counterexample) {
          std::cout << "    " << step << "\n";
        }
        if (sim.witness) counterexample = sim.witness;
      }
      refines = refines && sim.holds;
      refuted = refuted || sim.refuted();
      inconclusive = inconclusive || sim.truncated;

      auto sim_json = witness::Json::object();
      sim_json.set("holds", witness::Json::boolean(sim.holds));
      sim_json.set("abstract_states",
                   witness::Json::integer(
                       static_cast<std::int64_t>(sim.abstract_states)));
      sim_json.set("concrete_states",
                   witness::Json::integer(
                       static_cast<std::int64_t>(sim.concrete_states)));
      sim_json.set("candidate_pairs",
                   witness::Json::integer(
                       static_cast<std::int64_t>(sim.candidate_pairs)));
      sim_json.set("surviving_pairs",
                   witness::Json::integer(
                       static_cast<std::int64_t>(sim.surviving_pairs)));
      summary.set("simulation", std::move(sim_json));
    }

    const auto tr = refinement::play_trace_inclusion(pair, trace_opts);
    std::cout << "trace inclusion  (Defs. 5-7): "
              << verdict(tr.holds, tr.refuted()) << "  [" << tr.product_nodes
              << " product nodes]\n";
    if (!tr.holds && !tr.what.empty()) {
      std::cout << (tr.refuted() ? "  witness: " : "  diagnosis: ") << tr.what
                << "\n";
    }
    if (!tr.holds && tr.witness && !counterexample) {
      counterexample = tr.witness;
    }
    refines = refines && tr.holds;
    refuted = refuted || tr.refuted();
    inconclusive = inconclusive || tr.truncated;

    auto tr_json = witness::Json::object();
    tr_json.set("holds", witness::Json::boolean(tr.holds));
    tr_json.set("product_nodes",
                witness::Json::integer(
                    static_cast<std::int64_t>(tr.product_nodes)));
    summary.set("trace_inclusion", std::move(tr_json));

    if (!common.witness_path.empty()) {
      if (counterexample) {
        cli::write_witness(conc.sys, *counterexample, common.witness_path);
      } else {
        std::cout << "no counterexample run; " << common.witness_path
                  << " not written\n";
      }
    }

    summary.set("refines", witness::Json::boolean(refines));
    summary.set("inconclusive", witness::Json::boolean(inconclusive));
    if (!common.json_path.empty()) {
      cli::write_json_summary(summary, common.json_path);
    }

    // A found violation is definite even when coverage was partial — a check
    // refutes only from a complete graph pair or a real sampled run — so
    // DOES NOT REFINE wins over INCONCLUSIVE (mirroring rc11-verify's
    // INVALID-beats-INCONCLUSIVE ordering).  A check that never ran leaves
    // `refines` false in --json without refuting anything.
    if (refuted) {
      std::cout << "DOES NOT REFINE\n";
      return cli::kExitFail;
    }
    if (inconclusive) {
      std::cout << "INCONCLUSIVE: exploration truncated\n";
      return cli::kExitInconclusive;
    }
    std::cout << "REFINES\n";
    return cli::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "rc11-refine: " << e.what() << "\n";
    return cli::kExitUsage;
  }
}
