// Tests for the abstract object semantics of Section 4: the lock of Fig. 6
// (version counters, maximal timestamps, covering, synchronisation) and our
// synchronising container on a stack location (LIFO matching, pop_emp,
// push^R/pop^A synchronisation).

#include <gtest/gtest.h>

#include "memsem/location.hpp"
#include "memsem/state.hpp"
#include "objects/container.hpp"
#include "objects/lock.hpp"

namespace {

using namespace rc11::memsem;
namespace obj = rc11::objects;

struct ObjectFixture : ::testing::Test {
  LocationTable locs;
  LocId d, l, s;

  ObjectFixture() {
    d = locs.add_var("d", Component::Client, 0);
    l = locs.add_object("l", Component::Library, LocKind::Lock);
    s = locs.add_object("s", Component::Library, LocKind::Stack);
  }

  MemState make() { return MemState{locs, 3}; }
};

// --- lock ------------------------------------------------------------------

TEST_F(ObjectFixture, FreshLockIsAcquirable) {
  MemState m = make();
  EXPECT_TRUE(obj::lock_acquire_enabled(m, l));
  EXPECT_FALSE(obj::lock_holder(m, l).has_value());
  EXPECT_EQ(obj::lock_version(m, l), 0);
}

TEST_F(ObjectFixture, AcquireTakesVersionOneAndCoversInit) {
  MemState m = make();
  const OpId a = obj::lock_acquire(m, 0, l);
  EXPECT_EQ(m.op(a).kind, OpKind::LockAcquire);
  EXPECT_EQ(m.op(a).value, 1) << "acquire after init_0 is acquire_1";
  EXPECT_TRUE(m.op(m.mo(l)[0]).covered) << "Fig. 6: the observed op is covered";
  EXPECT_EQ(obj::lock_holder(m, l), std::optional<ThreadId>{0});
  EXPECT_FALSE(obj::lock_acquire_enabled(m, l));
}

TEST_F(ObjectFixture, ReleaseRequiresHolder) {
  MemState m = make();
  EXPECT_FALSE(obj::lock_release_enabled(m, 0, l)) << "lock not held";
  obj::lock_acquire(m, 0, l);
  EXPECT_FALSE(obj::lock_release_enabled(m, 1, l)) << "held by thread 0";
  EXPECT_TRUE(obj::lock_release_enabled(m, 0, l));
}

TEST_F(ObjectFixture, VersionsCountAllOperations) {
  MemState m = make();
  obj::lock_acquire(m, 0, l);               // acquire_1
  const OpId r2 = obj::lock_release(m, 0, l);  // release_2
  EXPECT_EQ(m.op(r2).value, 2);
  const OpId a3 = obj::lock_acquire(m, 1, l);  // acquire_3
  EXPECT_EQ(m.op(a3).value, 3);
  EXPECT_EQ(obj::lock_version(m, l), 3);
  EXPECT_TRUE(m.op(r2).covered) << "acquire_3 covers release_2";
}

TEST_F(ObjectFixture, OperationsHaveStrictlyIncreasingTimestamps) {
  MemState m = make();
  obj::lock_acquire(m, 0, l);
  obj::lock_release(m, 0, l);
  obj::lock_acquire(m, 1, l);
  obj::lock_release(m, 1, l);
  const auto order = m.mo(l);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(m.op(order[i - 1]).ts, m.op(order[i]).ts);
    EXPECT_EQ(m.rank(order[i]), i);
  }
}

TEST_F(ObjectFixture, AcquireSynchronisesWithReleaseView) {
  MemState m = make();
  obj::lock_acquire(m, 0, l);
  // Thread 0 writes the client variable inside its critical section.
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  obj::lock_release(m, 0, l);
  // Thread 1 acquires: it synchronises with release_2's mview and must now
  // definitely observe d = 5 (the write-visibility property of Section 5.3).
  obj::lock_acquire(m, 1, l);
  EXPECT_EQ(m.view_front(1, d), wd);
  const auto obs = m.observable(1, d);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(m.op(obs[0]).value, 5);
}

TEST_F(ObjectFixture, FirstAcquireSynchronisesWithInitView) {
  MemState m = make();
  obj::lock_acquire(m, 1, l);
  // Syncing with init is harmless: views stay at the initial writes.
  EXPECT_EQ(m.view_front(1, d), m.mo(d)[0]);
}

TEST_F(ObjectFixture, ReleaseIsReleasingAcquireIsNot) {
  MemState m = make();
  const OpId a = obj::lock_acquire(m, 0, l);
  const OpId r = obj::lock_release(m, 0, l);
  EXPECT_FALSE(m.op(a).releasing);
  EXPECT_TRUE(m.op(r).releasing);
}

TEST_F(ObjectFixture, LockApiRejectsWrongLocation) {
  MemState m = make();
  EXPECT_THROW((void)obj::lock_acquire_enabled(m, d), rc11::support::InternalError);
  EXPECT_THROW((void)obj::lock_acquire_enabled(m, s), rc11::support::InternalError);
}

// --- stack -----------------------------------------------------------------

TEST_F(ObjectFixture, FreshStackIsEmpty) {
  MemState m = make();
  EXPECT_TRUE(obj::container_empty(m, s));
  EXPECT_EQ(obj::container_size(m, s), 0u);
  EXPECT_EQ(obj::container_remove(m, 0, s, true), kStackEmpty);
}

TEST_F(ObjectFixture, PushPopIsLifo) {
  MemState m = make();
  obj::container_insert(m, 0, s, 10, true);
  obj::container_insert(m, 0, s, 20, true);
  obj::container_insert(m, 1, s, 30, true);
  EXPECT_EQ(obj::container_size(m, s), 3u);
  EXPECT_EQ(obj::container_remove(m, 2, s, true), 30);
  EXPECT_EQ(obj::container_remove(m, 2, s, true), 20);
  EXPECT_EQ(obj::container_remove(m, 2, s, true), 10);
  EXPECT_EQ(obj::container_remove(m, 2, s, true), kStackEmpty);
}

TEST_F(ObjectFixture, PopCoversMatchedPush) {
  MemState m = make();
  const OpId p = obj::container_insert(m, 0, s, 10, true);
  EXPECT_FALSE(m.op(p).covered);
  obj::container_remove(m, 1, s, true);
  EXPECT_TRUE(m.op(p).covered);
  EXPECT_TRUE(obj::container_empty(m, s));
}

TEST_F(ObjectFixture, AcquiringPopOfReleasingPushSynchronises) {
  MemState m = make();
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  obj::container_insert(m, 0, s, 1, /*releasing=*/true);
  const Value v = obj::container_remove(m, 1, s, /*acquiring=*/true);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(m.view_front(1, d), wd)
      << "Fig. 2: popping the message publishes the client write";
}

TEST_F(ObjectFixture, RelaxedPopDoesNotSynchronise) {
  MemState m = make();
  m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  obj::container_insert(m, 0, s, 1, /*releasing=*/true);
  obj::container_remove(m, 1, s, /*acquiring=*/false);
  EXPECT_EQ(m.view_front(1, d), m.mo(d)[0])
      << "Fig. 1: a relaxed pop leaves the client view stale";
}

TEST_F(ObjectFixture, AcquiringPopOfRelaxedPushDoesNotSynchronise) {
  MemState m = make();
  m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  obj::container_insert(m, 0, s, 1, /*releasing=*/false);
  obj::container_remove(m, 1, s, /*acquiring=*/true);
  EXPECT_EQ(m.view_front(1, d), m.mo(d)[0]);
}

TEST_F(ObjectFixture, EmptyPopDoesNotMutate) {
  MemState m = make();
  std::vector<std::uint64_t> before;
  m.encode(before);
  obj::container_remove(m, 0, s, true);
  std::vector<std::uint64_t> after;
  m.encode(after);
  EXPECT_EQ(before, after);
}

TEST_F(ObjectFixture, InterleavedPushPopTracksTop) {
  MemState m = make();
  obj::container_insert(m, 0, s, 1, true);
  obj::container_insert(m, 0, s, 2, true);
  EXPECT_EQ(obj::container_remove(m, 1, s, true), 2);
  obj::container_insert(m, 1, s, 3, true);
  EXPECT_EQ(obj::container_remove(m, 0, s, true), 3);
  EXPECT_EQ(obj::container_remove(m, 0, s, true), 1);
  EXPECT_TRUE(obj::container_empty(m, s));
}

TEST_F(ObjectFixture, StackApiRejectsWrongLocation) {
  MemState m = make();
  EXPECT_THROW((void)obj::container_next(m, l), rc11::support::InternalError);
  EXPECT_THROW(obj::container_insert(m, 0, d, 1, true),
               rc11::support::InternalError);
}

// Lock versions across many rounds — a parameterised sweep of the Fig. 6
// counting discipline: after k acquire/release rounds the version is 2k.
class LockRoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(LockRoundsTest, VersionsCountRounds) {
  LocationTable locs;
  const LocId l = locs.add_object("l", Component::Library, LocKind::Lock);
  MemState m{locs, 2};
  const int rounds = GetParam();
  for (int k = 0; k < rounds; ++k) {
    const ThreadId t = static_cast<ThreadId>(k % 2);
    ASSERT_TRUE(obj::lock_acquire_enabled(m, l));
    const OpId a = obj::lock_acquire(m, t, l);
    EXPECT_EQ(m.op(a).value, 2 * k + 1);
    const OpId r = obj::lock_release(m, t, l);
    EXPECT_EQ(m.op(r).value, 2 * k + 2);
  }
  EXPECT_EQ(obj::lock_version(m, l), 2 * rounds);
  // Every operation except the last release and the pending (uncovered)
  // releases is covered: acquires cover their predecessor.
  const auto order = m.mo(l);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (m.op(order[i]).kind != OpKind::LockAcquire) {
      EXPECT_TRUE(m.op(order[i]).covered)
          << "init/release followed by an acquire must be covered";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, LockRoundsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
