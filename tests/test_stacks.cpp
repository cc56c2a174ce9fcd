// Tests for the stack-object refinement extension (the paper's future-work
// direction: other concurrent data types in the same framework).  The
// lock-protected vector stack must forward-simulate the abstract
// synchronising stack; the broken variant (relaxed unlock) must fail; and
// the concrete implementation must deliver the same publication guarantee
// the abstract specification promises.

#include <gtest/gtest.h>

#include "containers/container_objects.hpp"
#include "explore/explorer.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using memsem::kStackEmpty;
using refinement::check_forward_simulation;
using refinement::check_trace_inclusion;
using containers::AbstractContainer;
using containers::ClientArtifacts;
using containers::instantiate;
using containers::LockedVectorStack;
using containers::producer_consumer_client;
using containers::publication_client;

// --- behaviour of the concrete implementation ---------------------------------

TEST(LockedVectorStack, PublishesLikeTheAbstractStack) {
  ClientArtifacts abs_art;
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(publication_client(&abs_art), abs);
  ClientArtifacts conc_art;
  LockedVectorStack conc;
  const auto conc_sys = instantiate(publication_client(&conc_art), conc);

  const auto abs_out = explore::final_register_values(
      abs_sys, explore::explore(abs_sys), abs_art.regs);
  const auto conc_out = explore::final_register_values(
      conc_sys, explore::explore(conc_sys), conc_art.regs);
  EXPECT_EQ(abs_out, conc_out);
  // The pop either misses (Empty, d stale or fresh) or gets the message and
  // then *must* see d = 5.
  for (const auto& o : conc_out) {
    if (o[0] == 1) {
      EXPECT_EQ(o[1], 5) << "publication guarantee violated";
    }
  }
}

TEST(LockedVectorStack, BrokenUnlockLeaksStaleReads) {
  ClientArtifacts art;
  LockedVectorStack broken{2, /*releasing_unlock=*/false};
  const auto sys = instantiate(publication_client(&art), broken);
  const auto result = explore::explore(sys);
  EXPECT_TRUE(
      explore::outcome_reachable(sys, result, {art.regs[0], art.regs[1]}, {1, 0}))
      << "with a relaxed unlock the popped message no longer publishes d";
}

TEST(LockedVectorStack, ProducerConsumerIsLifoShaped) {
  ClientArtifacts art;
  LockedVectorStack stack{2};
  const auto sys = instantiate(producer_consumer_client(2, &art), stack);
  const auto result = explore::explore(sys);
  const auto outcomes = explore::final_register_values(sys, result, art.regs);
  for (const auto& o : outcomes) {
    // Each pop returns Empty or a pushed value; a successful second pop after
    // a successful first pop must return the *other*, earlier value (LIFO:
    // first successful pop takes the top).
    for (const auto v : o) {
      EXPECT_TRUE(v == kStackEmpty || v == 10 || v == 11) << v;
    }
    if (o[0] == 11) {
      EXPECT_TRUE(o[1] == 10 || o[1] == kStackEmpty);
    }
    if (o[0] == 10 && o[1] != kStackEmpty) {
      // Popped 10 first: only possible before 11 was pushed; then the second
      // pop may return 11.
      EXPECT_EQ(o[1], 11);
    }
  }
}

TEST(LockedVectorStack, AgreesWithAbstractOnProducerConsumer) {
  ClientArtifacts abs_art;
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(producer_consumer_client(2, &abs_art), abs);
  ClientArtifacts conc_art;
  LockedVectorStack conc{2};
  const auto conc_sys =
      instantiate(producer_consumer_client(2, &conc_art), conc);
  const auto abs_out = explore::final_register_values(
      abs_sys, explore::explore(abs_sys), abs_art.regs);
  const auto conc_out = explore::final_register_values(
      conc_sys, explore::explore(conc_sys), conc_art.regs);
  EXPECT_EQ(abs_out, conc_out);
}

// --- refinement ----------------------------------------------------------------

TEST(StackRefinement, PublicationClientForwardSimulation) {
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(publication_client(), abs);
  LockedVectorStack conc;
  const auto conc_sys = instantiate(publication_client(), conc);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.diagnosis;
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.abstract_states, 13u);
  EXPECT_EQ(result.concrete_states, 95u);
}

TEST(StackRefinement, ProducerConsumerForwardSimulation) {
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(producer_consumer_client(2), abs);
  LockedVectorStack conc{2};
  const auto conc_sys = instantiate(producer_consumer_client(2), conc);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.diagnosis;
}

TEST(StackRefinement, BrokenUnlockFailsSimulation) {
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(publication_client(), abs);
  LockedVectorStack broken{2, /*releasing_unlock=*/false};
  const auto conc_sys = instantiate(publication_client(), broken);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(result.abstract_states, 13u);
  EXPECT_EQ(result.concrete_states, 109u);
}

TEST(StackRefinement, TraceInclusionAgreesWithSimulation) {
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(publication_client(), abs);
  {
    LockedVectorStack conc;
    const auto conc_sys = instantiate(publication_client(), conc);
    const auto r = check_trace_inclusion(abs_sys, conc_sys);
    EXPECT_TRUE(r.holds) << r.what;
  }
  {
    LockedVectorStack broken{2, /*releasing_unlock=*/false};
    const auto conc_sys = instantiate(publication_client(), broken);
    const auto r = check_trace_inclusion(abs_sys, conc_sys);
    EXPECT_FALSE(r.holds);
  }
}

// Capacity sweep: the implementation refines the specification for every
// capacity that accommodates the client's pushes.
class CapacitySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CapacitySweep, SimulationHolds) {
  const unsigned capacity = GetParam();
  AbstractContainer abs{memsem::LocKind::Stack};
  const auto abs_sys = instantiate(producer_consumer_client(2), abs);
  LockedVectorStack conc{capacity};
  const auto conc_sys = instantiate(producer_consumer_client(2), conc);
  const auto result = check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(2u, 3u, 4u));

}  // namespace
