// Tests for the witness subsystem: JSON round-trips (including hostile
// strings), replay as an independent oracle on witnesses produced by the
// explorer / outline checker / refinement checkers, parallel trace capture,
// minimization, and rejection of corrupted or tampered witness files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/diagnostics.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using witness::Witness;
using witness::WitnessStep;

constexpr const char* kSb = R"(
var x = 0;
var y = 0;
thread t1 { reg r1; x :=R 1; r1 <-A y; }
thread t2 { reg r2; y :=R 1; r2 <-A x; }
)";

constexpr const char* kSbInvariant =
    "!(done(t1) && done(t2) && r1 == 0 && r2 == 0)";

/// Explores kSb with the weak-outcome invariant and returns the parsed
/// program plus the first violation (which must carry a witness).
struct SbViolation {
  parser::ParsedProgram program;
  explore::Violation violation;
};

SbViolation sb_violation(unsigned num_threads = 1) {
  SbViolation out{parser::parse_program(kSb), {}};
  const auto assertion = parser::parse_assertion(out.program, kSbInvariant);
  explore::ExploreOptions opts;
  opts.track_traces = true;
  opts.num_threads = num_threads;
  opts.stop_on_violation = false;  // deterministic: collect them all
  const auto result = explore::explore(
      out.program.sys, opts,
      [&assertion](const lang::System& s,
                   const lang::Config& c) -> std::optional<std::string> {
        if (assertion.eval(s, c)) return std::nullopt;
        return std::string{"weak outcome reached"};
      });
  EXPECT_FALSE(result.violations.empty());
  out.violation = result.violations.front();
  return out;
}

// --- JSON round-trip --------------------------------------------------------

TEST(WitnessJson, RoundTripPreservesEverything) {
  Witness w;
  w.kind = "invariant";
  w.source = "test \"quoted\" \\ backslash";
  w.what = "line1\nline2\ttabbed";
  w.state_dump = "dump with unicode \xC3\xA9 and ctrl \x01 bytes";
  w.initial_digest = 0xDEADBEEFCAFEF00DULL;
  w.steps.push_back({0, "t0: x :=R 1", 0x1ULL});
  w.steps.push_back({witness::kAnyThread, "unknown-thread step", UINT64_MAX});
  const auto parsed = witness::from_json(witness::to_json(w));
  EXPECT_EQ(parsed, w);
}

TEST(WitnessJson, RejectsCorruptDocuments) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());
  const auto good = witness::to_json(*wit.violation.witness);

  EXPECT_THROW(witness::from_json("not json at all"), support::Error);
  EXPECT_THROW(witness::from_json("{}"), support::Error);
  EXPECT_THROW(witness::from_json("{\"format\": \"rc11-witness\"}"),
               support::Error);

  // Wrong magic / unsupported version / broken digest string.
  auto bad = good;
  bad.replace(bad.find("rc11-witness"), 12, "other-format");
  EXPECT_THROW(witness::from_json(bad), support::Error);
  bad = good;
  bad.replace(bad.find("\"version\": 1"), 12, "\"version\": 99");
  EXPECT_THROW(witness::from_json(bad), support::Error);
  bad = good;
  bad.replace(bad.find("0x"), 2, "zz");
  EXPECT_THROW(witness::from_json(bad), support::Error);
}

// --- explorer witnesses -----------------------------------------------------

TEST(ExplorerWitness, SbWeakOutcomeReplays) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());
  const auto& w = *wit.violation.witness;
  EXPECT_EQ(w.kind, "invariant");
  EXPECT_FALSE(w.steps.empty());

  const auto r = witness::replay(wit.program.sys, w);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.steps_applied, w.steps.size());

  // Full cross-check: the property really is violated where replay landed.
  ASSERT_TRUE(r.final_config.has_value());
  const auto assertion =
      parser::parse_assertion(wit.program, kSbInvariant);
  EXPECT_FALSE(assertion.eval(wit.program.sys, *r.final_config));
}

TEST(ExplorerWitness, SurvivesJsonRoundTripAndStillReplays) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());
  const auto reparsed =
      witness::from_json(witness::to_json(*wit.violation.witness));
  EXPECT_EQ(reparsed, *wit.violation.witness);
  EXPECT_TRUE(witness::replay(wit.program.sys, reparsed).ok);
}

TEST(ExplorerWitness, ParallelTracesAlwaysReplay) {
  // The satellite claim: track_traces composes with num_threads > 1.  A
  // parallel run's trace may differ from the sequential one but must always
  // be a real execution.
  for (int round = 0; round < 3; ++round) {
    const auto wit = sb_violation(/*num_threads=*/4);
    ASSERT_TRUE(wit.violation.witness.has_value());
    const auto r = witness::replay(wit.program.sys, *wit.violation.witness);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.error;
  }
}

TEST(ExplorerWitness, ViolationAtInitialStateHasEmptyRun) {
  auto program = parser::parse_program(kSb);
  explore::ExploreOptions opts;
  opts.track_traces = true;
  const auto result = explore::explore(
      program.sys, opts,
      [](const lang::System&, const lang::Config&) {
        return std::optional<std::string>{"always"};
      });
  ASSERT_FALSE(result.violations.empty());
  ASSERT_TRUE(result.violations.front().witness.has_value());
  const auto& w = *result.violations.front().witness;
  EXPECT_TRUE(w.steps.empty());
  EXPECT_EQ(w.final_digest(), w.initial_digest);
  EXPECT_TRUE(witness::replay(program.sys, w).ok);
}

TEST(ExplorerWitness, TamperedWitnessFailsReplay) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());

  auto tampered = *wit.violation.witness;
  tampered.steps.back().after_digest ^= 1;
  auto r = witness::replay(wit.program.sys, tampered);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  tampered = *wit.violation.witness;
  tampered.initial_digest ^= 1;
  r = witness::replay(wit.program.sys, tampered);
  EXPECT_FALSE(r.ok) << "wrong initial state must be rejected immediately";
  EXPECT_EQ(r.steps_applied, 0u);

  // A witness replayed against different semantics options diverges too.
  auto ablated = parser::parse_program(kSb);
  memsem::SemanticsOptions sem;
  sem.canonical_timestamps = false;
  ablated.sys.set_options(sem);
  EXPECT_FALSE(witness::replay(ablated.sys, *wit.violation.witness).ok);
}

TEST(ExplorerWitness, MinimizeShrinksAndStillReplays) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());
  const auto& w = *wit.violation.witness;
  const auto min = witness::minimize(wit.program.sys, w);
  EXPECT_LE(min.steps.size(), w.steps.size());
  EXPECT_EQ(min.final_digest(), w.final_digest());
  EXPECT_EQ(min.kind, w.kind);
  EXPECT_EQ(min.what, w.what);
  const auto r = witness::replay(wit.program.sys, min);
  EXPECT_TRUE(r.ok) << r.error;
}

// --- outline witnesses ------------------------------------------------------

constexpr const char* kBrokenOutline = R"(
var x = 0;
thread w { x :=R 1; }
thread r { reg a; a <-A x; }
outline {
  post r: a == 0;
}
)";

TEST(OutlineWitness, FailedObligationReplays) {
  for (const unsigned num_threads : {1u, 4u}) {
    auto program = parser::parse_program(kBrokenOutline);
    ASSERT_TRUE(program.outline.has_value());
    og::OutlineCheckOptions opts;
    opts.track_traces = true;
    opts.num_threads = num_threads;
    const auto result =
        og::check_outline(program.sys, *program.outline, opts);
    ASSERT_FALSE(result.valid);
    ASSERT_FALSE(result.failures.empty());
    const auto& failure = result.failures.front();
    ASSERT_TRUE(failure.witness.has_value());
    EXPECT_EQ(failure.witness->kind, "outline");
    EXPECT_EQ(failure.witness->what, failure.obligation);
    const auto r = witness::replay(program.sys, *failure.witness);
    EXPECT_TRUE(r.ok) << num_threads << " thread(s): " << r.error;
  }
}

// --- refinement witnesses ---------------------------------------------------

TEST(RefinementWitness, BrokenSeqLockSimulationCounterexampleReplays) {
  locks::AbstractLock abs;
  const auto abs_sys = locks::instantiate(locks::fig7_client(), abs);
  locks::SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = locks::instantiate(locks::fig7_client(), broken);

  const auto sim = refinement::check_forward_simulation(abs_sys, conc_sys);
  ASSERT_FALSE(sim.holds);
  if (sim.witness) {  // present iff the game found a dead concrete state
    EXPECT_EQ(sim.witness->kind, "refinement");
    const auto r = witness::replay(conc_sys, *sim.witness);
    EXPECT_TRUE(r.ok) << r.error;
  }

  const auto tr = refinement::check_trace_inclusion(abs_sys, conc_sys);
  ASSERT_FALSE(tr.holds);
  ASSERT_TRUE(tr.witness.has_value());
  EXPECT_EQ(tr.witness->kind, "refinement");
  const auto r = witness::replay(conc_sys, *tr.witness);
  EXPECT_TRUE(r.ok) << r.error;

  // The counterexample is a run of the *concrete* system; it must not
  // accidentally replay against the abstract one.
  EXPECT_FALSE(witness::replay(abs_sys, *tr.witness).ok);
}

// --- file round-trip --------------------------------------------------------

TEST(WitnessFiles, SaveLoadRoundTrip) {
  const auto wit = sb_violation();
  ASSERT_TRUE(wit.violation.witness.has_value());
  const std::string path =
      "/tmp/rc11_witness_" + std::to_string(getpid()) + "_roundtrip.json";
  witness::save(*wit.violation.witness, path);
  const auto loaded = witness::load(path);
  EXPECT_EQ(loaded, *wit.violation.witness);
  EXPECT_THROW(witness::load("/nonexistent/dir/w.json"), support::Error);
}

}  // namespace
