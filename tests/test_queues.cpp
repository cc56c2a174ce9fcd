// Tests for the FIFO queue object: abstract semantics (FIFO matching,
// empty dequeue, enqR/deqA synchronisation), the lock-protected ring-buffer
// implementation, and refinement between the two — the third data type
// through the paper's Section 6 machinery.

#include <gtest/gtest.h>

#include "containers/container_objects.hpp"
#include "explore/explorer.hpp"
#include "memsem/location.hpp"
#include "objects/container.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using containers::AbstractContainer;
using containers::ClientArtifacts;
using containers::instantiate;
using containers::LockedRingQueue;
using containers::producer_consumer_client;
using containers::publication_client;
using memsem::kQueueEmpty;
namespace obj = rc11::objects;

// --- abstract semantics --------------------------------------------------------

struct QueueFixture : ::testing::Test {
  memsem::LocationTable locs;
  memsem::LocId d, q;

  QueueFixture() {
    d = locs.add_var("d", memsem::Component::Client, 0);
    q = locs.add_object("q", memsem::Component::Library,
                        memsem::LocKind::Queue);
  }

  memsem::MemState make() { return memsem::MemState{locs, 2}; }
};

TEST_F(QueueFixture, FreshQueueIsEmpty) {
  auto m = make();
  EXPECT_TRUE(obj::container_empty(m, q));
  EXPECT_EQ(obj::container_size(m, q), 0u);
  EXPECT_EQ(obj::container_remove(m, 0, q, true), kQueueEmpty);
}

TEST_F(QueueFixture, EnqueueDequeueIsFifo) {
  auto m = make();
  obj::container_insert(m, 0, q, 10, true);
  obj::container_insert(m, 0, q, 20, true);
  obj::container_insert(m, 1, q, 30, true);
  EXPECT_EQ(obj::container_size(m, q), 3u);
  EXPECT_EQ(obj::container_remove(m, 1, q, true), 10);
  EXPECT_EQ(obj::container_remove(m, 1, q, true), 20);
  EXPECT_EQ(obj::container_remove(m, 1, q, true), 30);
  EXPECT_EQ(obj::container_remove(m, 1, q, true), kQueueEmpty);
}

TEST_F(QueueFixture, AcquiringDequeueOfReleasingEnqueueSynchronises) {
  auto m = make();
  const auto wd = m.write(0, d, 5, memsem::MemOrder::Relaxed, m.mo(d)[0]);
  obj::container_insert(m, 0, q, 1, /*releasing=*/true);
  EXPECT_EQ(obj::container_remove(m, 1, q, /*acquiring=*/true), 1);
  EXPECT_EQ(m.view_front(1, d), wd);
}

TEST_F(QueueFixture, RelaxedDequeueDoesNotSynchronise) {
  auto m = make();
  m.write(0, d, 5, memsem::MemOrder::Relaxed, m.mo(d)[0]);
  obj::container_insert(m, 0, q, 1, /*releasing=*/true);
  obj::container_remove(m, 1, q, /*acquiring=*/false);
  EXPECT_EQ(m.view_front(1, d), m.mo(d)[0]);
}

TEST_F(QueueFixture, EmptyDequeueDoesNotMutate) {
  auto m = make();
  std::vector<std::uint64_t> before;
  m.encode(before);
  obj::container_remove(m, 0, q, true);
  std::vector<std::uint64_t> after;
  m.encode(after);
  EXPECT_EQ(before, after);
}

TEST_F(QueueFixture, QueueApiRejectsWrongLocation) {
  auto m = make();
  EXPECT_THROW((void)obj::container_next(m, d), rc11::support::InternalError);
}

// --- behavioural agreement & refinement ------------------------------------------

TEST(QueueRefinement, PublicationGuarantee) {
  ClientArtifacts art;
  LockedRingQueue conc;
  const auto sys = instantiate(publication_client(&art), conc);
  const auto result = explore::explore(sys);
  const auto outcomes = explore::final_register_values(sys, result, art.regs);
  for (const auto& o : outcomes) {
    if (o[0] == 1) {
      EXPECT_EQ(o[1], 5) << "dequeued message must publish d";
    }
  }
}

TEST(QueueRefinement, AgreesWithAbstractOnPipeline) {
  ClientArtifacts abs_art;
  AbstractContainer abs{memsem::LocKind::Queue};
  const auto abs_sys = instantiate(producer_consumer_client(2, &abs_art), abs);
  ClientArtifacts conc_art;
  LockedRingQueue conc{2};
  const auto conc_sys =
      instantiate(producer_consumer_client(2, &conc_art), conc);
  const auto abs_out = explore::final_register_values(
      abs_sys, explore::explore(abs_sys), abs_art.regs);
  const auto conc_out = explore::final_register_values(
      conc_sys, explore::explore(conc_sys), conc_art.regs);
  EXPECT_EQ(abs_out, conc_out);
  // FIFO: a successful first dequeue returns the oldest value 10.
  for (const auto& o : abs_out) {
    EXPECT_NE(o[0], 11) << "queue must not return the newer element first";
  }
}

TEST(QueueRefinement, ForwardSimulationHolds) {
  AbstractContainer abs{memsem::LocKind::Queue};
  const auto abs_sys = instantiate(publication_client(), abs);
  LockedRingQueue conc;
  const auto conc_sys = instantiate(publication_client(), conc);
  const auto result = refinement::check_forward_simulation(abs_sys, conc_sys);
  EXPECT_TRUE(result.holds) << result.diagnosis;
  EXPECT_EQ(result.abstract_states, 13u);
  EXPECT_EQ(result.concrete_states, 100u);
}

TEST(QueueRefinement, PipelineSimulationHoldsAcrossCapacities) {
  for (const unsigned capacity : {2u, 3u}) {
    AbstractContainer abs{memsem::LocKind::Queue};
    const auto abs_sys = instantiate(producer_consumer_client(2), abs);
    LockedRingQueue conc{capacity};
    const auto conc_sys = instantiate(producer_consumer_client(2), conc);
    const auto result = refinement::check_forward_simulation(abs_sys, conc_sys);
    EXPECT_TRUE(result.holds)
        << "capacity " << capacity << ": " << result.diagnosis;
  }
}

TEST(QueueRefinement, BrokenUnlockFailsSimulation) {
  AbstractContainer abs{memsem::LocKind::Queue};
  const auto abs_sys = instantiate(publication_client(), abs);
  LockedRingQueue broken{2, /*releasing_unlock=*/false};
  const auto conc_sys = instantiate(publication_client(), broken);
  const auto result = refinement::check_forward_simulation(abs_sys, conc_sys);
  EXPECT_FALSE(result.holds);
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_EQ(result.abstract_states, 13u);
  EXPECT_EQ(result.concrete_states, 114u);
}

// --- parser round trip ------------------------------------------------------------

TEST(QueueParser, EnqDeqSyntax) {
  auto p = parser::parse_program(R"(
    var d = 0;
    queue library q;
    thread producer {
      d := 5;
      q.enqR(1);
    }
    thread consumer {
      reg r1;
      reg r2;
      do { r1 <-A q.deq(); } until (r1 == 1);
      r2 <- d;
    }
  )");
  const auto result = explore::explore(p.sys);
  const auto outcomes = explore::final_register_values(
      p.sys, result, {p.reg("r1"), p.reg("r2")});
  const std::vector<std::vector<lang::Value>> expected{{1, 5}};
  EXPECT_EQ(outcomes, expected)
      << "enqR/deqA message passing must publish d = 5";
}

TEST(QueueParser, KindMismatchRejected) {
  EXPECT_THROW(parser::parse_program(R"(
    queue library q;
    thread t { reg r; r <- q.pop(); }
  )"),
               rc11::support::Error);
}

}  // namespace
