// Tests for the contextual-refinement framework (Section 6): client
// projections, Definition 5 state refinement, the Definition 8 forward-
// simulation game (Propositions 9 and 10 for the sequence lock and ticket
// lock, plus the CAS spinlock), negative results for broken implementations,
// and the bounded Definition 6/7 trace-inclusion oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "containers/container_objects.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "refinement/refinement.hpp"
#include "support/diagnostics.hpp"

namespace {

using namespace rc11;
using lang::c;
using lang::Config;
using lang::System;
using locks::AbstractLock;
using locks::CasSpinLock;
using locks::ClientProgram;
using locks::instantiate;
using locks::SeqLock;
using locks::TicketLock;
using refinement::build_graph;
using refinement::check_forward_simulation;
using refinement::check_trace_inclusion;
using refinement::client_refines;
using refinement::project_client;

// --- client projection -------------------------------------------------------

TEST(ClientProjection, IgnoresLibraryState) {
  System sys;
  const auto x = sys.client_var("x", 0);
  const auto g = sys.library_var("g", 0);
  auto t0 = sys.thread();
  t0.store(g, c(1));
  t0.store(x, c(1));

  auto cfg = lang::initial_config(sys);
  const auto p0 = project_client(sys, cfg);
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // library write
  const auto p1 = project_client(sys, cfg);
  EXPECT_EQ(p0, p1) << "library writes must be invisible to the client";
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;  // client write
  const auto p2 = project_client(sys, cfg);
  EXPECT_NE(p0, p2);
}

TEST(ClientProjection, IgnoresLibraryRegisters) {
  System sys;
  sys.client_var("x", 0);
  auto t0 = sys.thread();
  auto lr = t0.reg("lib_r", 0, memsem::Component::Library);
  t0.assign(lr, c(9));

  auto cfg = lang::initial_config(sys);
  const auto p0 = project_client(sys, cfg);
  cfg = lang::thread_successors(sys, cfg, 0)[0].after;
  EXPECT_EQ(p0, project_client(sys, cfg));
}

TEST(ClientProjection, RefinementIsObsInclusion) {
  // Build two configurations of the same system differing only in how far a
  // thread's view has advanced: the further view refines the earlier one.
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store_rel(x, c(1));
  auto t1 = sys.thread();
  auto r = t1.reg("r");
  t1.load_acq(r, x);

  auto base = lang::initial_config(sys);
  base = lang::thread_successors(sys, base, 0)[0].after;  // x :=R 1
  // Thread 1 reads either init (view stays) or the new write (view moves).
  const auto steps = lang::thread_successors(sys, base, 1);
  ASSERT_EQ(steps.size(), 2u);
  const Config* stale = nullptr;
  const Config* fresh = nullptr;
  for (const auto& s : steps) {
    if (s.after.regs[1][r.id] == 0) stale = &s.after;
    if (s.after.regs[1][r.id] == 1) fresh = &s.after;
  }
  ASSERT_NE(stale, nullptr);
  ASSERT_NE(fresh, nullptr);
  // Registers differ, so these do not refine each other; but compare views
  // through hand-built projections of the same register state: use the
  // pre-read state vs itself.
  const auto p = project_client(sys, base);
  EXPECT_TRUE(client_refines(p, p)) << "refinement is reflexive";
}

// --- state graphs --------------------------------------------------------------

TEST(StateGraph, MatchesExplorerStateCount) {
  locks::ClientArtifacts art;
  AbstractLock lock;
  const auto sys = instantiate(locks::fig7_client(&art), lock);
  const auto graph = build_graph(sys);
  const auto result = explore::explore(sys);
  EXPECT_EQ(graph.num_states(), result.stats.states);
  EXPECT_EQ(graph.num_edges(), result.stats.transitions);
  EXPECT_EQ(graph.stop, engine::StopReason::Complete);
}

TEST(StateGraph, TruncationFlag) {
  locks::ClientArtifacts art;
  SeqLock lock;
  const auto sys = instantiate(locks::fig7_client(&art), lock);
  refinement::GraphOptions capped;
  capped.max_states = 10;
  const auto graph = build_graph(sys, capped);
  EXPECT_EQ(graph.stop, engine::StopReason::StateCap);
}

// --- Propositions 9 and 10 ------------------------------------------------------

struct NamedImpl {
  const char* label;
  std::function<std::unique_ptr<locks::LockObject>()> make;
};

class LockSimulation : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<NamedImpl> impls() {
    return {
        {"seqlock", [] { return std::make_unique<SeqLock>(); }},
        {"ticketlock", [] { return std::make_unique<TicketLock>(); }},
        {"cas-spinlock", [] { return std::make_unique<CasSpinLock>(); }},
        {"ttas-lock", [] { return std::make_unique<locks::TTASLock>(); }},
    };
  }
};

TEST_P(LockSimulation, Fig7ClientForwardSimulatesAbstractLock) {
  // Props. 9 (seqlock) and 10 (ticket lock), plus the CAS spinlock against
  // the same specification: concrete states and surviving candidate pairs,
  // in impls() order.
  const std::uint64_t concrete_states[] = {113, 55, 49, 109};
  const std::uint64_t surviving_pairs[] = {232, 102, 95, 219};
  const auto idx = static_cast<std::size_t>(GetParam());
  const auto impl = impls()[idx];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::fig7_client(), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.abstract_states, 17u);
  EXPECT_EQ(result.concrete_states, concrete_states[idx]) << impl.label;
  EXPECT_EQ(result.surviving_pairs, surviving_pairs[idx]) << impl.label;
}

TEST_P(LockSimulation, MgcClientForwardSimulatesAbstractLock) {
  const auto impl = impls()[static_cast<std::size_t>(GetParam())];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::mgc_client(2, 1), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::mgc_client(2, 1), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
}

TEST_P(LockSimulation, CounterClientForwardSimulatesAbstractLock) {
  const auto impl = impls()[static_cast<std::size_t>(GetParam())];
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::counter_client(2, 1), abs);
  auto conc_lock = impl.make();
  const auto conc_sys = instantiate(locks::counter_client(2, 1), *conc_lock);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << impl.label << ": " << result.diagnosis;
}

std::string impl_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "seqlock";
    case 1: return "ticketlock";
    case 2: return "cas_spinlock";
    default: return "ttas_lock";
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, LockSimulation, ::testing::Range(0, 4),
                         impl_name);

// --- negative results ------------------------------------------------------------

TEST(BrokenLocks, SeqLockWithRelaxedReleaseFailsSimulation) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds)
      << "a relaxed release breaks the specification's publication guarantee";
  EXPECT_FALSE(result.diagnosis.empty());
  EXPECT_EQ(result.abstract_states, 17u);
  EXPECT_EQ(result.concrete_states, 120u);
}

TEST(BrokenLocks, TicketLockWithRelaxedReleaseFailsSimulation) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  TicketLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(result.abstract_states, 17u);
  EXPECT_EQ(result.concrete_states, 62u);
}

TEST(BrokenLocks, BrokenSeqLockExhibitsStaleClientRead) {
  // Ground truth for the negative simulation results: with the broken lock,
  // the client really can read stale data after "acquiring".
  locks::ClientArtifacts art;
  SeqLock broken{/*releasing_release=*/false};
  const auto sys = instantiate(locks::fig7_client(&art), broken);
  const auto result = explore::explore(sys);
  // art.regs = {ok0, ok1, r1, r2}; look for r1 = 0 with r2 = 5 or similar
  // stale outcomes that the abstract lock forbids.
  const auto outcomes = explore::final_register_values(
      sys, result, {art.regs[2], art.regs[3]});
  bool stale = false;
  for (const auto& o : outcomes) {
    if (!(o[0] == 0 && o[1] == 0) && !(o[0] == 5 && o[1] == 5)) stale = true;
  }
  EXPECT_TRUE(stale) << "broken lock must leak weak behaviour to the client";
}

TEST(CorrectLocks, SeqLockClientOutcomesMatchAbstract) {
  locks::ClientArtifacts abs_art;
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(&abs_art), abs);
  locks::ClientArtifacts conc_art;
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(&conc_art), conc);
  const auto abs_out = explore::final_register_values(
      abs_sys, explore::explore(abs_sys), {abs_art.regs[2], abs_art.regs[3]});
  const auto conc_out = explore::final_register_values(
      conc_sys, explore::explore(conc_sys), {conc_art.regs[2], conc_art.regs[3]});
  EXPECT_EQ(abs_out, conc_out);
  const std::vector<std::vector<lang::Value>> expected{{0, 0}, {5, 5}};
  EXPECT_EQ(abs_out, expected);
}

// --- bounded trace inclusion (Defs. 6/7 oracle) -----------------------------------

TEST(TraceInclusion, SeqLockRefinesAbstractOnFig7Client) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.what;
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.product_nodes, 151u);
}

TEST(TraceInclusion, BrokenSeqLockViolatesInclusion) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
  EXPECT_FALSE(result.what.empty());
  EXPECT_EQ(result.product_nodes, 140u);
}

TEST(TraceInclusion, ReflexivityOnAbstractSystem) {
  AbstractLock a1, a2;
  const auto s1 = instantiate(locks::fig7_client(), a1);
  const auto s2 = instantiate(locks::fig7_client(), a2);
  const auto result = check_trace_inclusion(s1, s2);
  EXPECT_TRUE(result.holds) << result.what;
}

TEST(TraceInclusion, TicketLockAlsoPasses) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  TicketLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_trace_inclusion(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.what;
  EXPECT_EQ(result.product_nodes, 69u);
}


// --- failure diagnostics -------------------------------------------------------

TEST(Diagnostics, FailedSimulationCarriesCounterexample) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock broken{/*releasing_release=*/false};
  const auto conc_sys = instantiate(locks::fig7_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  ASSERT_FALSE(result.holds);
  ASSERT_FALSE(result.counterexample.empty())
      << "a broken lock should have a concrete run no abstract state matches";
  // The trace must pass through the broken relaxed release (`glb := ...`)
  // before the divergence; this lock has no releasing store to show.
  bool relaxed_release = false;
  for (const auto& step : result.counterexample) {
    EXPECT_EQ(step.find("glb :=R"), std::string::npos) << step;
    if (step.find("glb := ") != std::string::npos) relaxed_release = true;
  }
  EXPECT_TRUE(relaxed_release) << "counterexample should pass through the "
                                  "relaxed release";
}

TEST(Diagnostics, SuccessfulSimulationHasNoCounterexample) {
  AbstractLock abs;
  const auto abs_sys = instantiate(locks::fig7_client(), abs);
  SeqLock conc;
  const auto conc_sys = instantiate(locks::fig7_client(), conc);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  ASSERT_TRUE(result.holds);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(Diagnostics, GraphLabelsOnDemand) {
  System sys;
  const auto x = sys.client_var("x", 0);
  auto t0 = sys.thread();
  t0.store(x, c(1));
  const auto unlabelled = build_graph(sys);
  EXPECT_TRUE(unlabelled.labels.empty());
  refinement::GraphOptions with_labels;
  with_labels.max_states = 1000;
  with_labels.want_labels = true;
  const auto labelled = build_graph(sys, with_labels);
  ASSERT_EQ(labelled.labels.size(), labelled.num_states());
  ASSERT_FALSE(labelled.labels[0].empty());
  EXPECT_NE(labelled.labels[0][0].find("x := 1"), std::string::npos);
}


// --- labels regenerated on demand ---------------------------------------------

/// A graph built without labels regenerates, edge by edge, exactly the label
/// and thread a labelled build stores: over the lock, stack and queue
/// refinement systems, with and without por, and on a seeded sample.
TEST(StateGraph, RegeneratedLabelsMatchLabelledBuild) {
  SeqLock seqlock;
  containers::LockedVectorStack stack;
  containers::LockedRingQueue queue;
  const System systems[] = {
      instantiate(locks::fig7_client(), seqlock),
      containers::instantiate(containers::publication_client(), stack),
      containers::instantiate(containers::publication_client(), queue),
  };
  refinement::GraphOptions plain;
  refinement::GraphOptions por;
  por.por = true;
  refinement::GraphOptions sampled;
  sampled.mode = engine::Strategy::Sample;
  sampled.sample.episodes = 40;
  sampled.sample.seed = 3;
  for (std::size_t s = 0; s < std::size(systems); ++s) {
    const System& sys = systems[s];
    for (const auto* options : {&plain, &por, &sampled}) {
      SCOPED_TRACE(support::concat("system ", s, " por ", options->por,
                                   " sampled ",
                                   options->mode == engine::Strategy::Sample));
      auto labelled_options = *options;
      labelled_options.want_labels = true;
      const auto labelled = build_graph(sys, labelled_options);
      const auto graph = build_graph(sys, *options);
      EXPECT_TRUE(graph.labels.empty());
      ASSERT_EQ(graph.succ, labelled.succ);
      ASSERT_EQ(graph.step_index, labelled.step_index);
      std::size_t edges = 0;
      for (std::uint32_t i = 0; i < graph.num_states(); ++i) {
        for (std::uint32_t e = 0; e < graph.succ[i].size(); ++e) {
          const auto step = refinement::edge_label(sys, graph, i, e);
          EXPECT_EQ(step.label, labelled.labels[i][e]) << i << "/" << e;
          EXPECT_TRUE(step.label.starts_with(
              support::concat("t", step.thread, ": ")))
              << i << "/" << e << ": " << step.label;
          ++edges;
        }
      }
      EXPECT_GT(edges, 0u);
    }
  }
}

// --- pinned counterexamples -------------------------------------------------------

/// Everything a refuted check reports — its counters, diagnosis,
/// counterexample lines, `what`, and the witness with each step's thread,
/// label and digest — as one text, so a pin compares all of it at once.
std::string witness_record(const std::optional<witness::Witness>& w) {
  if (!w) return "no witness\n";
  std::string out = support::concat(w->kind, " ", w->source, " init ",
                                    w->initial_digest, "\nwhat ", w->what,
                                    "\ndump ", w->state_dump, "\n");
  for (const auto& s : w->steps) {
    out += support::concat("step t", s.thread, " ", s.after_digest, " ",
                           s.label, "\n");
  }
  return out;
}

std::string record(const refinement::SimulationResult& r) {
  std::string out = support::concat(
      "holds ", r.holds, " truncated ", r.truncated, " abs ", r.abstract_states,
      " conc ", r.concrete_states, " candidates ", r.candidate_pairs,
      " survivors ", r.surviving_pairs, " iterations ",
      r.refinement_iterations, "\ndiagnosis ", r.diagnosis, "\n");
  for (const auto& line : r.counterexample) out += "cx " + line + "\n";
  return out + witness_record(r.witness);
}

std::string record(const refinement::TraceInclusionResult& r) {
  return support::concat("holds ", r.holds, " truncated ", r.truncated,
                         " played ", r.played, " nodes ", r.product_nodes,
                         "\nwhat ", r.what, "\n") +
         witness_record(r.witness);
}

/// 64-bit FNV-1a over the report's bytes.
std::uint64_t text_digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The refuted pairs of the lock, stack and queue suites.  Each game's full
/// report is pinned by its digest, with the witness length alongside for a
/// readable failure; the same report must come out at 1 and 4 workers.  On
/// a deliberate change the failure prints the new report and its digest.
TEST(Counterexamples, PinnedAcrossWorkersAndPor) {
  AbstractLock abs_lock;
  SeqLock broken_seq{/*releasing_release=*/false};
  TicketLock broken_ticket{/*releasing_release=*/false};
  containers::AbstractContainer abs_stack{memsem::LocKind::Stack};
  containers::LockedVectorStack broken_stack{2, /*releasing_unlock=*/false};
  containers::AbstractContainer abs_queue{memsem::LocKind::Queue};
  containers::LockedRingQueue broken_queue{2, /*releasing_unlock=*/false};
  struct Pair {
    const char* name;
    System abs, conc;
  };
  const Pair pairs[] = {
      {"seqlock", instantiate(locks::fig7_client(), abs_lock),
       instantiate(locks::fig7_client(), broken_seq)},
      {"ticket", instantiate(locks::fig7_client(), abs_lock),
       instantiate(locks::fig7_client(), broken_ticket)},
      {"stack",
       containers::instantiate(containers::publication_client(), abs_stack),
       containers::instantiate(containers::publication_client(), broken_stack)},
      {"queue",
       containers::instantiate(containers::publication_client(), abs_queue),
       containers::instantiate(containers::publication_client(), broken_queue)},
  };
  struct Pin {
    const char* pair;
    bool por;
    std::uint64_t simulation;  ///< digest of the simulation's record
    std::size_t simulation_steps;
    std::uint64_t inclusion;  ///< digest of trace inclusion's record
    std::size_t inclusion_steps;
  };
  const Pin pins[] = {
      {"seqlock", false, 0xff041952a81f3b1f, 13, 0xb57322aeb7f5d5f9, 13},
      {"seqlock", true, 0xb3c253b7a7f1c225, 13, 0x4be35d2aeb619073, 13},
      {"ticket", false, 0xb591bca385a1187a, 11, 0x73748d558601cafc, 11},
      {"ticket", true, 0xb591bca385a1187a, 11, 0x73748d558601cafc, 11},
      {"stack", false, 0xf9cb04e353237288, 15, 0x1e1df8c602b21910, 15},
      {"stack", true, 0x43b6f991d0b17ed1, 15, 0xd0f18148b697c289, 15},
      {"queue", false, 0xcd225d4170428fda, 16, 0xb5d8ed5778646562, 16},
      {"queue", true, 0xfa8c3f04a237f5cf, 16, 0xf932518f3f9d7f24, 16},
  };
  for (const auto& pin : pins) {
    const auto& pair = *std::find_if(
        std::begin(pairs), std::end(pairs),
        [&](const Pair& p) { return std::string{p.name} == pin.pair; });
    for (const unsigned workers : {1u, 4u}) {
      const std::string where = support::concat(
          pin.pair, " por ", pin.por, " workers ", workers);
      refinement::SimulationOptions sim_opts;
      sim_opts.por = pin.por;
      sim_opts.num_threads = workers;
      const auto sim = check_forward_simulation(pair.abs, pair.conc, sim_opts);
      ASSERT_TRUE(sim.refuted()) << where;
      ASSERT_TRUE(sim.witness.has_value()) << where;
      const std::string sim_text = record(sim);
      EXPECT_EQ(sim.witness->steps.size(), pin.simulation_steps) << where;
      EXPECT_EQ(text_digest(sim_text), pin.simulation)
          << where << " simulation, digest 0x" << std::hex
          << text_digest(sim_text) << std::dec << ":\n"
          << sim_text;

      refinement::TraceInclusionOptions inc_opts;
      inc_opts.por = pin.por;
      inc_opts.num_threads = workers;
      const auto inc = check_trace_inclusion(pair.abs, pair.conc, inc_opts);
      ASSERT_TRUE(inc.refuted()) << where;
      ASSERT_TRUE(inc.witness.has_value()) << where;
      const std::string inc_text = record(inc);
      EXPECT_EQ(inc.witness->steps.size(), pin.inclusion_steps) << where;
      EXPECT_EQ(text_digest(inc_text), pin.inclusion)
          << where << " trace inclusion, digest 0x" << std::hex
          << text_digest(inc_text) << std::dec << ":\n"
          << inc_text;
    }
  }
}

}  // namespace
