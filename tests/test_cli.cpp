// End-to-end tests of the command-line tools (rc11-run, rc11-verify,
// rc11-race, rc11-refine) against the sample programs in tools/programs/,
// driven through std::system.  Paths are injected by CMake compile
// definitions.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"

namespace {

std::string bin(const std::string& name) {
  return std::string(RC11_BIN_DIR) + "/tools/" + name;
}

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

/// Per-process scratch path: ctest runs each test case as its own process in
/// parallel, so a fixed shared name would race.
std::string tmp_path(const std::string& stem) {
  return "/tmp/rc11_cli_" + std::to_string(getpid()) + "_" + stem;
}

int run(const std::string& cmd, std::string* output = nullptr) {
  const std::string out_path = tmp_path("test.out");
  const std::string redirected = cmd + " > " + out_path + " 2>&1";
  const int status = std::system(redirected.c_str());
  if (output != nullptr) {
    std::ifstream in{out_path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
  }
  return WEXITSTATUS(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Like run, but keeps stdout and stderr apart.
int run_split(const std::string& cmd, std::string& out, std::string& err) {
  const std::string out_path = tmp_path("split.out");
  const std::string err_path = tmp_path("split.err");
  const std::string redirected =
      cmd + " > " + out_path + " 2> " + err_path;
  const int status = std::system(redirected.c_str());
  out = read_file(out_path);
  err = read_file(err_path);
  return WEXITSTATUS(status);
}

TEST(Cli, RunExploresSampleProgram) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " " + prog("mp_stack.rc11"), &out), 0);
  EXPECT_NE(out.find("states:"), std::string::npos);
  EXPECT_NE(out.find("r1=1, r2=5"), std::string::npos)
      << "publication outcome expected:\n" << out;
}

TEST(Cli, RunAblationChangesOutcomes) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " --no-ctview " + prog("mp_stack.rc11"), &out),
            0);
  EXPECT_NE(out.find("r1=1, r2=0"), std::string::npos)
      << "A1 ablation must expose the stale read:\n" << out;
}

TEST(Cli, RunRejectsBadUsage) {
  EXPECT_EQ(run(bin("rc11-run") + " --bogus-flag whatever"), 1);
  EXPECT_EQ(run(bin("rc11-run") + " /nonexistent/file.rc11"), 1);
  // The retired multi-process flag is unknown to every tool; multi-core runs
  // use --threads.
  const std::string workers_flag = std::string("--") + "workers";
  for (const std::string tool :
       {"rc11-run", "rc11-race", "rc11-verify", "rc11-refine"}) {
    std::string out;
    const std::string programs =
        tool == "rc11-refine" ? prog("lock_client_abstract.rc11") + " " +
                                    prog("lock_client_seqlock.rc11")
        : tool == "rc11-verify" ? prog("mp_verified.rc11")
                                : prog("sb.rc11");
    EXPECT_EQ(run(bin(tool) + " " + workers_flag + " 2 " + programs, &out), 1)
        << tool;
    EXPECT_NE(out.find("usage: " + tool), std::string::npos) << out;
  }
}

// Checked in-process on the flag parser: a tool that accepted a huge
// --threads would start that many worker threads.
TEST(Cli, ThreadsAboveTheLimitAreRejected) {
  using rc11::cli::FlagStatus;
  const auto parse = [](std::string value, std::string& err) {
    std::string flag = "--threads";
    char* argv[] = {flag.data(), flag.data(), value.data()};
    int i = 1;
    rc11::cli::CommonOptions opts;
    ::testing::internal::CaptureStderr();
    const auto status = rc11::cli::parse_common_flag(3, argv, i, opts);
    err = ::testing::internal::GetCapturedStderr();
    return status;
  };
  std::string err;
  EXPECT_EQ(parse("1024", err), FlagStatus::Consumed);
  EXPECT_EQ(err, "");
  for (const char* value : {"1025", "100000", "4294967295"}) {
    EXPECT_EQ(parse(value, err), FlagStatus::Error) << value;
    EXPECT_NE(err.find("--threads"), std::string::npos) << value << ": " << err;
    EXPECT_NE(err.find("1024"), std::string::npos) << value << ": " << err;
  }
}

TEST(Cli, RunWritesDotFile) {
  std::string out;
  const std::string dot_path = tmp_path("graph.dot");
  EXPECT_EQ(run(bin("rc11-run") + " --dot " + dot_path + " " + prog("sb.rc11"),
                &out),
            0);
  EXPECT_NE(read_file(dot_path).find("digraph"), std::string::npos);
}

TEST(Cli, RefineAcceptsSeqlockPair) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-refine") + " " + prog("lock_client_abstract.rc11") +
                    " " + prog("lock_client_seqlock.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("REFINES"), std::string::npos);
}

// --stats reports each graph of the one pair both games share: the counter
// is summed inside the graph builds, so building a graph twice would show.
TEST(Cli, RefineStatsReportEachGraphOnce) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-refine") + " --stats " +
                    prog("lock_client_abstract.rc11") + " " +
                    prog("lock_client_seqlock.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("abstract graph: 17 states, "), std::string::npos) << out;
  EXPECT_NE(out.find("concrete graph: 113 states, "), std::string::npos)
      << out;
  EXPECT_NE(out.find("stop complete\n"), std::string::npos) << out;
  EXPECT_NE(out.find("graph states built: 130\n"), std::string::npos) << out;
  EXPECT_NE(out.find("REFINES"), std::string::npos) << out;
}

TEST(Cli, RefineRejectsBrokenPair) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-refine") + " " + prog("lock_client_abstract.rc11") +
                    " " + prog("lock_client_broken.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("DOES NOT REFINE"), std::string::npos);
}

// A check whose graph build hit the state cap never ran: it refutes
// nothing, so the run is INCONCLUSIVE (exit 3), not DOES NOT REFINE.  The
// --json verdict still reads refines=false, inconclusive=true.
TEST(Cli, RefineCappedRunIsInconclusive) {
  for (const std::string extra : {"", " --trace-only"}) {
    std::string out;
    const std::string json = tmp_path("capped_refine.json");
    EXPECT_EQ(run(bin("rc11-refine") + " --max-states 1" + extra +
                      " --json " + json + " " +
                      prog("lock_client_abstract.rc11") + " " +
                      prog("lock_client_seqlock.rc11"),
                  &out),
              3)
        << extra << "\n" << out;
    EXPECT_NE(out.find("INCONCLUSIVE"), std::string::npos) << out;
    EXPECT_EQ(out.find("fails"), std::string::npos) << out;
    EXPECT_EQ(out.find("DOES NOT REFINE"), std::string::npos) << out;
    EXPECT_NE(out.find("trace inclusion  (Defs. 5-7): inconclusive"),
              std::string::npos)
        << out;
    if (extra.empty()) {
      EXPECT_NE(out.find("forward simulation (Def. 8):  inconclusive"),
                std::string::npos)
          << out;
    }
    const std::string summary = read_file(json);
    EXPECT_NE(summary.find("\"refines\": false"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("\"inconclusive\": true"), std::string::npos)
        << summary;
    std::remove(json.c_str());
  }
}

TEST(Cli, TicketLockSampleSerialises) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " " + prog("ticket_lock.rc11"), &out), 0);
  EXPECT_NE(out.find("finals:      2"), std::string::npos)
      << "two serialisation orders expected:\n" << out;
}


TEST(Cli, VerifyAcceptsFig3Outline) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-verify") + " " + prog("mp_verified.rc11"), &out), 0);
  EXPECT_NE(out.find("outline VALID"), std::string::npos) << out;
}

TEST(Cli, VerifyRejectsBrokenOutline) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-verify") + " " + prog("mp_broken_outline.rc11"), &out),
            2);
  EXPECT_NE(out.find("outline INVALID"), std::string::npos) << out;
}

TEST(Cli, VerifyStatsReportEvaluatedObligations) {
  // --stats adds the evaluated count; the plain report leaves it out.
  std::string plain, stats;
  EXPECT_EQ(run(bin("rc11-verify") + " " + prog("mp_verified.rc11"), &plain),
            0);
  EXPECT_EQ(plain.find("obligations evaluated:"), std::string::npos) << plain;
  EXPECT_EQ(run(bin("rc11-verify") + " --stats " + prog("mp_verified.rc11"),
                &stats),
            0);
  EXPECT_NE(stats.find("obligations checked:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("obligations evaluated:"), std::string::npos) << stats;
}

TEST(Cli, VerifyNeedsAnOutline) {
  EXPECT_EQ(run(bin("rc11-verify") + " " + prog("sb.rc11")), 1);
}

// --- witness emission and replay --------------------------------------------

const std::string kSbInvariant =
    "'!(done(t1) && done(t2) && r1 == 0 && r2 == 0)'";

TEST(Cli, RunInvariantViolationEmitsReplayableWitness) {
  const std::string wit = tmp_path("sb_witness.json");
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " --invariant " + kSbInvariant +
                    " --witness " + wit + " " + prog("sb.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("VIOLATION"), std::string::npos) << out;
  EXPECT_NE(read_file(wit).find("rc11-witness"), std::string::npos);

  EXPECT_EQ(run(bin("rc11-run") + " --replay " + wit + " " + prog("sb.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("replay OK"), std::string::npos) << out;
}

TEST(Cli, RunParallelWitnessReplays) {
  const std::string wit = tmp_path("sb_witness_par.json");
  EXPECT_EQ(run(bin("rc11-run") + " --threads 4 --invariant " + kSbInvariant +
                " --witness " + wit + " " + prog("sb.rc11")),
            2);
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " --replay " + wit + " " + prog("sb.rc11"),
                &out),
            0)
      << out;
}

TEST(Cli, RunReplayRejectsWrongProgramAndGarbage) {
  const std::string wit = tmp_path("sb_witness_wrong.json");
  EXPECT_EQ(run(bin("rc11-run") + " --invariant " + kSbInvariant +
                " --witness " + wit + " " + prog("sb.rc11")),
            2);
  // Same witness, different program: the initial digest already diverges.
  std::string out;
  EXPECT_EQ(run(bin("rc11-run") + " --replay " + wit + " " +
                    prog("ticket_lock.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("replay FAILED"), std::string::npos) << out;
  // Corrupted file: parse errors exit 1.
  const std::string garbage = tmp_path("garbage.json");
  std::ofstream{garbage} << "{ not a witness";
  EXPECT_EQ(run(bin("rc11-run") + " --replay " + garbage + " " +
                prog("sb.rc11")),
            1);
}

TEST(Cli, RunRejectsUnknownInvariantName) {
  EXPECT_EQ(run(bin("rc11-run") + " --invariant 'zz == 1' " + prog("sb.rc11")),
            1);
}

TEST(Cli, VerifyWitnessRoundTrips) {
  const std::string wit = tmp_path("outline_witness.json");
  std::string out;
  EXPECT_EQ(run(bin("rc11-verify") + " --witness " + wit + " " +
                    prog("mp_broken_outline.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("written to"), std::string::npos) << out;
  EXPECT_EQ(run(bin("rc11-verify") + " --replay " + wit + " " +
                    prog("mp_broken_outline.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("replay OK"), std::string::npos) << out;
}

TEST(Cli, RefineWitnessRoundTripsAgainstConcrete) {
  const std::string wit = tmp_path("refine_witness.json");
  std::string out;
  EXPECT_EQ(run(bin("rc11-refine") + " --witness " + wit + " " +
                    prog("lock_client_abstract.rc11") + " " +
                    prog("lock_client_broken.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("written to"), std::string::npos) << out;
  EXPECT_EQ(run(bin("rc11-refine") + " --replay " + wit + " " +
                    prog("lock_client_abstract.rc11") + " " +
                    prog("lock_client_broken.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("replay OK"), std::string::npos) << out;
}

TEST(Cli, RefineCombinedPorSymmetryWitnessReplays) {
  // Both reductions at once: the counterexample found in the reduced product
  // must still replay through the full, unreduced semantics.
  const std::string wit = tmp_path("refine_witness_reduced.json");
  std::string out;
  EXPECT_EQ(run(bin("rc11-refine") + " --por --symmetry --witness " + wit +
                    " " + prog("lock_client_abstract.rc11") + " " +
                    prog("lock_client_broken.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("written to"), std::string::npos) << out;
  EXPECT_EQ(run(bin("rc11-refine") + " --replay " + wit + " " +
                    prog("lock_client_abstract.rc11") + " " +
                    prog("lock_client_broken.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("replay OK"), std::string::npos) << out;
}

// --- rejected flag combinations ---------------------------------------------

TEST(Cli, RejectedReductionCombinations) {
  // Every tool refuses these before it runs anything: exit 1, nothing on
  // stdout, and a message naming each offending flag.  The checkpoint file
  // is never read or written, and rc11-refine's concrete program does not
  // exist, so its rows also show the flags are refused before any file is
  // read.
  struct Case {
    std::string tool;
    std::string flags;
    std::vector<std::string> names;
  };
  const std::string ckpt = tmp_path("never.ckpt");
  const std::string sample = "--strategy sample:10";
  std::vector<Case> cases;
  for (const std::string tool : {"rc11-run", "rc11-race"}) {
    for (const std::string flag :
         {"--por", "--symmetry", "--rf-quotient", "--checkpoint", "--resume"}) {
      const bool takes_file = flag == "--checkpoint" || flag == "--resume";
      cases.push_back({tool,
                       sample + " " + flag + (takes_file ? " " + ckpt : ""),
                       {"--strategy sample", flag}});
    }
    cases.push_back(
        {tool, "--symmetry --rf-quotient", {"--symmetry", "--rf-quotient"}});
    cases.push_back({tool, "--seed 5", {"--seed"}});
  }
  cases.push_back(
      {"rc11-verify", sample + " --por", {"--strategy sample", "--por"}});
  cases.push_back({"rc11-verify", "--symmetry --rf-quotient",
                   {"--symmetry", "--rf-quotient"}});
  cases.push_back({"rc11-verify", sample + " --resume " + ckpt,
                   {"--strategy sample", "--resume"}});
  cases.push_back({"rc11-refine", "--rf-quotient", {"--rf-quotient"}});
  cases.push_back(
      {"rc11-refine", sample + " --por", {"--strategy sample", "--por"}});
  cases.push_back({"rc11-refine", "--symmetry --rf-quotient",
                   {"--symmetry", "--rf-quotient"}});
  cases.push_back({"rc11-refine", "--checkpoint " + ckpt, {"--checkpoint"}});
  cases.push_back({"rc11-refine", "--resume " + ckpt, {"--resume"}});

  for (const Case& c : cases) {
    const std::string programs =
        c.tool == "rc11-refine"
            ? prog("lock_client_abstract.rc11") + " " + prog("missing.rc11")
        : c.tool == "rc11-verify" ? prog("mp_verified.rc11")
                                  : prog("sb.rc11");
    SCOPED_TRACE(c.tool + " " + c.flags);
    std::string out;
    std::string err;
    EXPECT_EQ(
        run_split(bin(c.tool) + " " + c.flags + " " + programs, out, err), 1);
    EXPECT_EQ(out, "");
    for (const auto& name : c.names) {
      EXPECT_NE(err.find(name), std::string::npos) << err;
    }
  }
  EXPECT_NE(access(ckpt.c_str(), F_OK), 0) << "no checkpoint is written";
}

TEST(Cli, RefineNotesFollowTheInputs) {
  // rc11-refine's "implies --trace-only" notes go to stdout only once both
  // programs are read, and never before a --replay, which plays no game: a
  // missing program or witness leaves stdout empty, as in every other tool.
  const std::string abs = prog("lock_client_abstract.rc11");
  for (const auto& [args, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--symmetry " + abs + " " + prog("missing.rc11"),
            "cannot open program file"},
           {"--strategy sample:10 " + abs + " " + prog("missing.rc11"),
            "cannot open program file"},
           {"--replay /nonexistent.json --strategy sample:3 " + abs + " " +
                prog("lock_client_broken.rc11"),
            "cannot open"}}) {
    SCOPED_TRACE(args);
    std::string out;
    std::string err;
    EXPECT_EQ(run_split(bin("rc11-refine") + " " + args, out, err), 1);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find(message), std::string::npos) << err;
  }
}

TEST(Cli, MalformedFaultSpecIsAUsageError) {
  // RC11_FAULT is input like a flag: every tool rejects a malformed spec
  // with exit 1, nothing on stdout, and a message naming the variable.
  // rc11-refine's --symmetry row would otherwise print its note first.
  const std::string refine_pair = prog("lock_client_abstract.rc11") + " " +
                                  prog("lock_client_seqlock.rc11");
  for (const auto& [tool, programs] :
       std::vector<std::pair<std::string, std::string>>{
           {"rc11-run", prog("sb.rc11")},
           {"rc11-race", prog("sb.rc11")},
           {"rc11-verify", prog("mp_verified.rc11")},
           {"rc11-refine", refine_pair},
           {"rc11-refine", "--symmetry " + refine_pair}}) {
    SCOPED_TRACE(tool + " " + programs);
    std::string out;
    std::string err;
    EXPECT_EQ(
        run_split("RC11_FAULT=bogus " + bin(tool) + " " + programs, out, err),
        1);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find("RC11_FAULT"), std::string::npos) << err;
  }
}

// --- rc11-race ---------------------------------------------------------------

TEST(Cli, RaceClassifiesRacyAndCleanPrograms) {
  std::string out;
  EXPECT_EQ(run(bin("rc11-race") + " " + prog("mp_na_racy.rc11"), &out), 2);
  EXPECT_NE(out.find("RACE: data race on 'd'"), std::string::npos) << out;
  EXPECT_EQ(run(bin("rc11-race") + " " + prog("mp_na_release.rc11"), &out), 0);
  EXPECT_NE(out.find("races:       0"), std::string::npos) << out;
}

TEST(Cli, RaceSamplingIsNeverDefinitivelyClean) {
  // A clean sampling run is a lower bound, not a proof: exit 3, not 0.
  EXPECT_EQ(run(bin("rc11-race") + " --strategy sample:500 --seed 7 " +
                prog("disjoint_na.rc11")),
            3);
  // But a race found by sampling is still a real race: exit 2.
  EXPECT_EQ(run(bin("rc11-race") + " --strategy sample:500 --seed 7 " +
                prog("mp_na_racy.rc11")),
            2);
}

/// The "races" array of a --json summary, for byte-comparison across engine
/// configurations (the surrounding stats/strategy fields legitimately vary).
std::string race_list_of(const std::string& json) {
  const auto begin = json.find("\"races\"");
  const auto end = json.find("\"stats\"");
  EXPECT_NE(begin, std::string::npos) << json;
  EXPECT_NE(end, std::string::npos) << json;
  return json.substr(begin, end - begin);
}

TEST(Cli, RaceJsonListIdenticalAcrossReductions) {
  const std::string plain = tmp_path("race_plain.json");
  const std::string reduced = tmp_path("race_reduced.json");
  EXPECT_EQ(run(bin("rc11-race") + " --json " + plain + " " +
                prog("dcl_broken.rc11")),
            2);
  EXPECT_EQ(run(bin("rc11-race") + " --threads 4 --por --symmetry --json " +
                reduced + " " + prog("dcl_broken.rc11")),
            2);
  const std::string a = race_list_of(read_file(plain));
  EXPECT_EQ(a, race_list_of(read_file(reduced)));
  EXPECT_NE(a.find("non-atomic write"), std::string::npos) << a;
}

TEST(Cli, RaceWitnessRoundTrips) {
  const std::string wit = tmp_path("race_witness.json");
  std::string out;
  EXPECT_EQ(run(bin("rc11-race") + " --witness " + wit + " " +
                    prog("dcl_broken.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("written to"), std::string::npos) << out;
  EXPECT_EQ(run(bin("rc11-race") + " --replay " + wit + " " +
                    prog("dcl_broken.rc11"),
                &out),
            0);
  EXPECT_NE(out.find("replay OK"), std::string::npos) << out;
  // Same witness against a different program: digests diverge, exit 2.
  EXPECT_EQ(run(bin("rc11-race") + " --replay " + wit + " " +
                    prog("mp_na_racy.rc11"),
                &out),
            2);
  EXPECT_NE(out.find("replay FAILED"), std::string::npos) << out;
}

TEST(Cli, RaceParallelReducedWitnessReplays) {
  const std::string wit = tmp_path("race_witness_par.json");
  EXPECT_EQ(run(bin("rc11-race") + " --threads 4 --por --symmetry" +
                " --witness " + wit + " " + prog("flag_spin_racy.rc11")),
            2);
  std::string out;
  EXPECT_EQ(run(bin("rc11-race") + " --replay " + wit + " " +
                    prog("flag_spin_racy.rc11"),
                &out),
            0)
      << out;
}

}  // namespace
