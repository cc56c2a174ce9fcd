// Thread-symmetry reduction: soundness and the reduction headline (see
// engine/symmetry.hpp for the quotient construction and DESIGN.md for the
// soundness argument).
//
// The tests check that --symmetry preserves what the differential matrix
// (test_matrix.cpp, whose symmetry rows check final sets on the corpus,
// case studies, compute family and lock clients) does not cover —
// invariant-violation sets, outline and refinement verdicts, witness
// replayability, checkpoint round-trips — on representative systems,
// composed with POR, and that it actually reduces the symmetric workloads
// it targets.  Programs with no interchangeable threads must come out
// bit-identical to an unreduced run (the sound-no-op claim).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalogue.hpp"
#include "containers/container_objects.hpp"
#include "engine/checkpoint.hpp"
#include "engine/reach.hpp"
#include "engine/symmetry.hpp"
#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "matrix.hpp"
#include "og/catalog.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/hash.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;
using catalogue::final_encodings;
using engine::StopReason;
using explore::ExploreOptions;
using lang::Config;
using lang::System;

/// The (what, state_dump) multiset is the thread-count- and
/// reduction-independent part of a violation report (traces may differ).
std::vector<std::pair<std::string, std::string>> violation_keys(
    const explore::ExploreResult& result) {
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(result.violations.size());
  for (const auto& v : result.violations) {
    keys.emplace_back(v.what, v.state_dump);
  }
  return keys;
}

TEST(Symmetry, SymmetricWorkloadsExactAndReduced) {
  // Identical worker threads are the archetype: the quotient must agree
  // with the unreduced run on everything observable (the matrix's symmetry
  // rows) and visit at least |orbit|-ish fewer states than the same run
  // without it (the test asserts a conservative >= 2x; the >= 10x headline
  // is asserted on the larger instances in
  // Symmetry.ReductionHeadlineOnTargetFamilies).
  locks::TicketLock ticket;
  const matrix::Input input{
      "ticket worker(3,1,2)", matrix::kUnlisted,
      locks::instantiate(locks::worker_client(3, 1, 2), ticket)};
  matrix::Reference reference(input);
  for (const bool por : {false, true}) {
    const auto reduced = matrix::check(
        matrix::row(por ? "symmetry+por/1" : "symmetry/1"), input, reference);
    ASSERT_TRUE(reduced.has_value());
    EXPECT_GT(reduced->stats.symmetry_hits, 0u)
        << "a symmetric workload must actually hit the quotient";
    ExploreOptions base;
    base.por = por;
    const auto baseline = explore::explore(input.sys, base);
    EXPECT_GE(static_cast<double>(baseline.stats.states),
              2.0 * static_cast<double>(reduced->stats.states))
        << "por=" << por << ": symmetry must at least halve the states";
  }
}

/// N identical threads, each insert(1) then remove: fully
/// interchangeable, so the quotient collapses the thread orbit.
containers::ClientProgram sym_container_client(unsigned threads) {
  return [threads](System& sys, containers::ContainerObject& container) {
    for (unsigned t = 0; t < threads; ++t) {
      auto tb = sys.thread();
      auto r = tb.reg("r");
      container.emit_insert(tb, lang::c(1), /*releasing=*/true);
      container.emit_remove(tb, r, /*acquiring=*/true);
    }
  };
}

TEST(Symmetry, ReductionHeadlineOnTargetFamilies) {
  // Experiment SR: --por against --por --symmetry on the ticket-worker,
  // queue and stack families.  The exact sizes pin both paths; the
  // four-thread families shrink by >= 10x in visited states, the
  // three-thread ones (orbit 3! = 6) and the asymmetric MP control need
  // not, and every final configuration is kept.  The parsed lock workers
  // pin that register names do not split a symmetry class.
  struct Case {
    const char* name;
    System sys;
    bool targeted;
    std::uint64_t por_states, por_transitions;
    std::uint64_t sym_states, sym_transitions, symmetry_hits, sleep_skips;
  };
  locks::TicketLock ticket;
  containers::AbstractContainer abstract_queue(memsem::LocKind::Queue);
  containers::LockedRingQueue ring_queue(4);
  containers::AbstractContainer abstract_stack(memsem::LocKind::Stack);
  const Case cases[] = {
      {"ticket_worker_4x1w2",
       locks::instantiate(locks::worker_client(4, 1, 2), ticket), true, 5181,
       17792, 228, 786, 691, 215},
      {"ticket_worker_3x1w2",
       locks::instantiate(locks::worker_client(3, 1, 2), ticket), false, 364,
       903, 64, 160, 111, 25},
      {"abstract_queue_4x",
       containers::instantiate(sym_container_client(4), abstract_queue), true,
       1461,
       2048, 66, 102, 34, 0},
      {"ring_queue_3x",
       containers::instantiate(sym_container_client(3), ring_queue),
       false, 10912, 35307, 1842, 5969, 3527, 1044},
      {"abstract_stack_4x",
       containers::instantiate(sym_container_client(4), abstract_stack), true,
       2865,
       4556, 125, 208, 66, 0},
      {"mp_litmus",
       parser::parse_file(catalogue::program_path("mp_rel_acq.rc11")).sys,
       false, 13, 17, 13, 17, 0, 0},
      // Three parsed workers that differ only in their register names.
      {"lock_workers_named",
       parser::parse_file(catalogue::program_path("lock_workers_named.rc11"))
           .sys,
       false, 61, 60, 13, 15, 2, 0},
  };
  for (const auto& c : cases) {
    ExploreOptions por;
    por.por = true;
    ExploreOptions sym = por;
    sym.symmetry = true;
    const auto baseline = explore::explore(c.sys, por);
    const auto reduced = explore::explore(c.sys, sym);
    EXPECT_EQ(baseline.stats.states, c.por_states) << c.name;
    EXPECT_EQ(baseline.stats.transitions, c.por_transitions) << c.name;
    EXPECT_EQ(reduced.stats.states, c.sym_states) << c.name;
    EXPECT_EQ(reduced.stats.transitions, c.sym_transitions) << c.name;
    EXPECT_EQ(reduced.stats.symmetry_hits, c.symmetry_hits) << c.name;
    EXPECT_EQ(reduced.stats.sleep_set_skips, c.sleep_skips) << c.name;
    EXPECT_EQ(final_encodings(reduced), final_encodings(baseline)) << c.name;
    if (c.targeted) {
      EXPECT_GE(static_cast<double>(baseline.stats.states),
                10.0 * static_cast<double>(reduced.stats.states))
          << c.name;
    }
  }
}

TEST(Symmetry, NoopOnAsymmetricPrograms) {
  // No two threads of the MP litmus share code: the reducer must classify
  // the system as asymmetric and the run must come out state-for-state
  // identical to an unreduced one (sleep sets prune transitions, never
  // states).
  const auto sys =
      parser::parse_file(catalogue::program_path("mp_rel_acq.rc11")).sys;
  ExploreOptions full;
  const auto reference = explore::explore(sys, full);
  ExploreOptions reduced;
  reduced.symmetry = true;
  const auto r = explore::explore(sys, reduced);
  EXPECT_EQ(r.stats.symmetry_hits, 0u);
  EXPECT_EQ(r.stats.states, reference.stats.states);
  EXPECT_EQ(r.stats.finals, reference.stats.finals);
  EXPECT_EQ(r.stats.blocked, reference.stats.blocked);
  EXPECT_EQ(final_encodings(r), final_encodings(reference));
}

// --- the key against its definition -----------------------------------------

/// What a walk over every reachable state found about its symmetry keys.
struct KeyCensus {
  std::uint64_t states = 0;
  std::uint64_t stabilised = 0;  ///< keys reporting more than one permutation
  std::uint64_t incomplete = 0;  ///< keys with complete == false
  /// Reported permutations p with permuted(c, p).encode() != key.encoding.
  std::uint64_t wrong_perms = 0;
  /// (state, group element) pairs where a complete key is not a function of
  /// the orbit: permuted(c, pi) is unreachable or keys differently.
  std::uint64_t orbit_splits = 0;
};

/// Checks the symmetry key of every state a plain run reaches against its
/// definition: each reported permutation p maps the state onto the key, and
/// a complete key is a function of the orbit — for every group element pi,
/// permuted(c, pi) has the same key words and as many minimising
/// permutations.  The orbit half reads the key of permuted(c, pi) from the
/// first pass, which covers every orbit member (the plain run reaches
/// them all, by equivariance), instead of canonicalising |G| configurations
/// per state: |G| is 5040 on the seven-thread input.
KeyCensus check_keys_against_definition(const System& sys) {
  const engine::SymmetryReducer reducer(sys);
  EXPECT_TRUE(reducer.symmetric());
  std::vector<engine::ThreadPerm> group;
  reducer.for_each_perm(
      [&](const engine::ThreadPerm& pi) { group.push_back(pi); });
  struct Summary {
    std::uint64_t digest;  ///< hash_words of the key words
    std::size_t perms;
    bool complete;
  };
  std::map<std::vector<std::uint64_t>, Summary> keys;  // by concrete encoding
  const auto for_each_state = [&](const auto& fn) {
    engine::ReachOptions plain;
    plain.num_threads = 1;
    const auto result = engine::visit_reachable(
        sys, plain,
        [&](const Config& cfg, std::uint64_t, std::span<const lang::Step>) {
          fn(cfg);
          return true;
        });
    EXPECT_EQ(result.stop, StopReason::Complete);
  };
  KeyCensus census;
  engine::AbstractKey key;
  for_each_state([&](const Config& cfg) {
    reducer.canonicalize(cfg, key);
    census.states += 1;
    if (key.perms.size() > 1) census.stabilised += 1;
    if (!key.complete) census.incomplete += 1;
    EXPECT_FALSE(key.perms.empty());
    for (const engine::ThreadPerm& p : key.perms) {
      if (reducer.permuted(cfg, p).encode() != key.encoding) {
        census.wrong_perms += 1;
      }
    }
    keys.emplace(cfg.encode(), Summary{support::hash_words(key.encoding),
                                       key.perms.size(), key.complete});
  });
  for_each_state([&](const Config& cfg) {
    const Summary& own = keys.at(cfg.encode());
    if (!own.complete) return;
    for (const engine::ThreadPerm& pi : group) {
      const auto it = keys.find(reducer.permuted(cfg, pi).encode());
      if (it == keys.end() || it->second.digest != own.digest ||
          it->second.perms != own.perms) {
        census.orbit_splits += 1;
      }
    }
  });
  return census;
}

/// `threads` copies of one thread body, named `name`0, `name`1, ...; each
/// '$' in the body becomes the copy's index, so register names stay unique.
std::string replicated(const std::string& name, unsigned threads,
                       const std::string& body) {
  std::string source;
  for (unsigned t = 0; t < threads; ++t) {
    const std::string index = std::to_string(t);
    source += "thread " + name + index + " { ";
    for (const char ch : body) {
      if (ch == '$') {
        source += index;
      } else {
        source += ch;
      }
    }
    source += " }\n";
  }
  return source;
}

TEST(Symmetry, KeysMatchTheirDefinition) {
  // The pinned keys (StateRepr.CanonicalEncodingPinned, the one-worker
  // schedule, the matrix's symmetry rows) come from one-class systems with
  // rare ties.  These inputs add a system with two classes, each ordered in
  // its own span of the reducer's slot-order array, one whose largest tie
  // groups exceed the candidate cap, and two race-detected systems, whose
  // keys must carry the clock rows, columns, messages and summaries
  // relabelled as MemState::permute_threads moves them.
  const auto race_detected = [](const char* name) {
    System sys = parser::parse_file(catalogue::program_path(name)).sys;
    auto options = sys.options();
    options.race_detection = true;
    sys.set_options(options);
    return sys;
  };
  std::string two_classes = "var x = 0;\nvar y = 0;\n";
  two_classes += replicated("w", 2, "x := 1; y :=R 1;");
  two_classes += replicated("r", 2, "reg a$; reg b$; a$ <-A y; b$ <- x;");
  std::string seven_readers = "var x = 0;\n";
  seven_readers += replicated("t", 7, "reg r$; r$ <- x;");
  struct Case {
    const char* what;
    System sys;
    std::uint64_t states, stabilised, incomplete;
  };
  const Case cases[] = {
      {"ticket_worker",
       parser::parse_file(catalogue::program_path("ticket_worker.rc11")).sys,
       16699, 43, 0},
      {"two writers + two readers", parser::parse_program(two_classes).sys,
       789, 109, 0},
      // Seven equal threads: a state where all or none have read is one tie
      // group of 7! = 5040 candidates, past the cap of 720.
      {"seven readers", parser::parse_program(seven_readers).sys, 128, 126,
       2},
      {"ticket_worker race-detected", race_detected("ticket_worker.rc11"),
       17479, 43, 0},
      {"dcl_init race-detected", race_detected("dcl_init.rc11"), 95, 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const KeyCensus got = check_keys_against_definition(c.sys);
    EXPECT_EQ(got.states, c.states);
    EXPECT_EQ(got.stabilised, c.stabilised);
    EXPECT_EQ(got.incomplete, c.incomplete);
    EXPECT_EQ(got.wrong_perms, 0u);
    EXPECT_EQ(got.orbit_splits, 0u);
  }
}

TEST(Symmetry, InvariantViolationSetsExact) {
  // Violations are compared on the (what, state_dump) multiset: the
  // explorer evaluates the invariant at every orbit member of each visited
  // representative, so the quotiented set must equal the unreduced one even
  // when the violating state is not the representative.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::counter_client(2, 1), ticket);
  const explore::Invariant inv =
      [](const System& s, const lang::Config& cfg)
      -> std::optional<std::string> {
    if (!cfg.all_done(s)) return std::nullopt;
    return "final state reached";
  };

  ExploreOptions full;
  full.stop_on_violation = false;
  const auto reference = explore::explore(sys, full, inv);
  ASSERT_FALSE(reference.violations.empty());

  for (const bool por : {false, true}) {
    ExploreOptions reduced;
    reduced.symmetry = true;
    reduced.por = por;
    reduced.stop_on_violation = false;
    const auto r = explore::explore(sys, reduced, inv);
    EXPECT_EQ(violation_keys(r), violation_keys(reference)) << "por=" << por;
  }
}

TEST(Symmetry, WitnessesFromQuotientedRunsReplay) {
  // Violation traces from a quotiented run lead to the visited
  // representative — a real execution — so every witness must replay
  // step-for-step through the FULL semantics, at every worker count and
  // with POR composed.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  for (const unsigned workers : {1U, 4U}) {
    ExploreOptions opts;
    opts.symmetry = true;
    opts.por = true;
    opts.track_traces = true;
    opts.num_threads = workers;
    opts.stop_on_violation = false;
    const auto result = explore::explore(
        sys, opts,
        [](const System& s, const lang::Config& cfg)
            -> std::optional<std::string> {
          if (!cfg.all_done(s)) return std::nullopt;
          return "final state reached";
        });
    ASSERT_FALSE(result.violations.empty()) << "workers=" << workers;
    for (const auto& v : result.violations) {
      ASSERT_TRUE(v.witness.has_value());
      const auto r = witness::replay(sys, *v.witness);
      EXPECT_TRUE(r.ok) << "workers=" << workers << ": " << r.error;
    }
  }
}

// --- checkpoint / resume under symmetry -------------------------------------

/// A temp-file path that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Symmetry, CheckpointRoundTripPreservesVerdicts) {
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  ExploreOptions full_opts;
  full_opts.symmetry = true;
  const auto full = explore::explore(sys, full_opts);
  ASSERT_EQ(full.stop, StopReason::Complete);
  ASSERT_GE(full.stats.states, 4u);

  TempFile ck("symmetry_roundtrip.json");
  ExploreOptions trunc_opts = full_opts;
  trunc_opts.max_states = full.stats.states / 2;
  trunc_opts.checkpoint_path = ck.path;
  const auto truncated = explore::explore(sys, trunc_opts);
  ASSERT_EQ(truncated.stop, StopReason::StateCap);

  const auto ckpt = engine::load_checkpoint(ck.path);
  EXPECT_TRUE(ckpt.reduction.symmetry)
      << "the checkpoint must record the setting";

  ExploreOptions resume_opts = full_opts;
  resume_opts.resume = &ckpt;
  const auto resumed = explore::explore(sys, resume_opts);
  EXPECT_EQ(resumed.stop, StopReason::Complete);
  EXPECT_EQ(resumed.stats.states, full.stats.states);
  EXPECT_EQ(resumed.stats.finals, full.stats.finals);
  EXPECT_EQ(resumed.stats.blocked, full.stats.blocked);
  EXPECT_EQ(final_encodings(resumed), final_encodings(full));

  // And the whole quotiented pipeline still agrees with an unreduced run.
  const auto unreduced = explore::explore(sys, ExploreOptions{});
  EXPECT_EQ(final_encodings(resumed), final_encodings(unreduced));
}

TEST(Symmetry, ResumeRejectsMismatchedSymmetry) {
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(3, 1, 2), ticket);

  // Checkpoint written with symmetry ON, resumed with it OFF: the visited
  // set holds canonical representatives an unquotiented run cannot
  // interpret, so the engine must reject loudly rather than silently skip
  // states.
  {
    TempFile ck("symmetry_mismatch_on.json");
    ExploreOptions opts;
    opts.symmetry = true;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
  // And the other direction: a plain checkpoint resumed under --symmetry.
  {
    TempFile ck("symmetry_mismatch_off.json");
    ExploreOptions opts;
    opts.max_states = 16;
    opts.checkpoint_path = ck.path;
    ASSERT_EQ(explore::explore(sys, opts).stop, StopReason::StateCap);
    const auto ckpt = engine::load_checkpoint(ck.path);
    ExploreOptions resume_opts;
    resume_opts.symmetry = true;
    resume_opts.resume = &ckpt;
    EXPECT_THROW((void)explore::explore(sys, resume_opts),
                 std::runtime_error);
  }
}

TEST(Symmetry, RejectedUnderSampling) {
  // Sampling replays concrete schedules and cannot quotient states; the
  // combination is rejected loudly (the CLIs catch it in resolve_strategy,
  // the engine backstops it for library users).  Reduction.RejectedCombinations
  // (test_sample.cpp) runs the same row at every library entry point.
  locks::TicketLock ticket;
  const auto sys = locks::instantiate(locks::worker_client(2, 1, 2), ticket);
  ExploreOptions opts;
  opts.symmetry = true;
  opts.mode = engine::Strategy::Sample;
  opts.sample.episodes = 4;
  EXPECT_THROW((void)explore::explore(sys, opts), std::runtime_error);
}

// --- outline checking under symmetry ----------------------------------------

TEST(Symmetry, OutlineVerdictsAgree) {
  for (const bool symmetry : {false, true}) {
    og::OutlineCheckOptions opts;
    opts.symmetry = symmetry;
    {
      const auto ex = og::make_fig3();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3 symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig3_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig3-broken symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig7();
      EXPECT_TRUE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7 symmetry=" << symmetry;
    }
    {
      const auto ex = og::make_fig7_broken();
      EXPECT_FALSE(og::check_outline(ex.sys, ex.outline, opts).valid)
          << "fig7-broken symmetry=" << symmetry;
    }
  }
}

TEST(Symmetry, OutlineObligationCountsExact) {
  // Obligations are evaluated at every orbit member, so the count — and the
  // failed-obligation set — must equal the unreduced run's exactly.
  {
    const auto ex = og::make_fig3();
    og::OutlineCheckOptions plain;
    const auto a = og::check_outline(ex.sys, ex.outline, plain);
    og::OutlineCheckOptions quotient;
    quotient.symmetry = true;
    const auto b = og::check_outline(ex.sys, ex.outline, quotient);
    EXPECT_EQ(b.obligations_checked, a.obligations_checked);
  }
  {
    const auto ex = og::make_fig3_broken();
    og::OutlineCheckOptions plain;
    plain.stop_at_first_failure = false;
    auto quotient = plain;
    quotient.symmetry = true;
    const auto a = og::check_outline(ex.sys, ex.outline, plain);
    const auto b = og::check_outline(ex.sys, ex.outline, quotient);
    EXPECT_EQ(b.obligations_checked, a.obligations_checked);
    EXPECT_EQ(b.failures.size(), a.failures.size());
  }
}

// --- refinement product quotient --------------------------------------------

TEST(Symmetry, RefinementTraceInclusionAgrees) {
  locks::AbstractLock abstract;
  locks::SeqLock good;
  locks::SeqLock broken(/*releasing_release=*/false);
  const auto abs_sys = locks::instantiate(locks::fig7_client(), abstract);
  const auto good_sys = locks::instantiate(locks::fig7_client(), good);
  const auto broken_sys = locks::instantiate(locks::fig7_client(), broken);

  refinement::TraceInclusionOptions plain;
  refinement::TraceInclusionOptions quotient;
  quotient.symmetry = true;
  const auto good_plain =
      refinement::check_trace_inclusion(abs_sys, good_sys, plain);
  const auto good_quot =
      refinement::check_trace_inclusion(abs_sys, good_sys, quotient);
  EXPECT_TRUE(good_plain.holds);
  EXPECT_TRUE(good_quot.holds);
  EXPECT_LE(good_quot.product_nodes, good_plain.product_nodes)
      << "the quotient may never grow the product";
  EXPECT_FALSE(
      refinement::check_trace_inclusion(abs_sys, broken_sys, quotient).holds)
      << "a broken implementation must still be caught under the quotient";
}

TEST(Symmetry, RefinementSymmetricClientShrinksProduct) {
  // The worker client runs identical threads (the most-general client does
  // not — it writes unique per-thread values), so both systems are
  // symmetric with equal classes and the product quotient actually fires.
  locks::AbstractLock abstract;
  locks::TicketLock ticket;
  const auto abs_sys =
      locks::instantiate(locks::worker_client(2, 1, 2), abstract);
  const auto conc_sys =
      locks::instantiate(locks::worker_client(2, 1, 2), ticket);

  refinement::TraceInclusionOptions plain;
  refinement::TraceInclusionOptions quotient;
  quotient.symmetry = true;
  const auto a = refinement::check_trace_inclusion(abs_sys, conc_sys, plain);
  const auto b =
      refinement::check_trace_inclusion(abs_sys, conc_sys, quotient);
  EXPECT_EQ(b.holds, a.holds) << "verdicts must not change";
  EXPECT_LT(b.product_nodes, a.product_nodes)
      << "a symmetric client must actually shrink the product";
}

}  // namespace
