// Tests for the text front end: round-trips through the paper's program
// syntax, semantic checks (unknown names, component/kind mismatches, the
// Exp_L locality restriction), and end-to-end agreement with the builder
// API.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "explore/explorer.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"

namespace {

using namespace rc11;
using parser::parse_program;
using rc11::support::Error;

TEST(Parser, MinimalProgram) {
  const auto p = parse_program(R"(
    var x = 0;
    thread t {
      x := 1;
    }
  )");
  EXPECT_EQ(p.sys.num_threads(), 1u);
  EXPECT_EQ(p.thread_names, std::vector<std::string>{"t"});
  EXPECT_EQ(p.sys.code(0).size(), 1u);
  EXPECT_EQ(p.sys.locations().name(p.loc("x")), "x");
}

TEST(Parser, DeclarationsAndComponents) {
  const auto p = parse_program(R"(
    var client d = 5;
    var library glb = 0;
    lock library l;
    stack library s;
    thread t { d := 1; }
  )");
  EXPECT_EQ(p.sys.locations().component(p.loc("d")), memsem::Component::Client);
  EXPECT_EQ(p.sys.locations().component(p.loc("glb")),
            memsem::Component::Library);
  EXPECT_EQ(p.sys.locations().kind(p.loc("l")), memsem::LocKind::Lock);
  EXPECT_EQ(p.sys.locations().kind(p.loc("s")), memsem::LocKind::Stack);
  EXPECT_EQ(p.sys.locations().info(p.loc("d")).initial, 5);
}

TEST(Parser, NegativeInitialValues) {
  const auto p = parse_program(R"(
    var x = -3;
    thread t { reg r = -1; r := r + 1; }
  )");
  EXPECT_EQ(p.sys.locations().info(p.loc("x")).initial, -3);
  EXPECT_EQ(p.sys.reg_initial(0, p.reg("r").id), -1);
}

TEST(Parser, MessagePassingEndToEnd) {
  auto p = parse_program(R"(
    var d = 0;
    var f = 0;
    thread producer {
      d := 5;
      f :=R 1;
    }
    thread consumer {
      reg r1;
      reg r2;
      r1 <-A f;
      r2 <- d;
    }
  )");
  const auto result = explore::explore(p.sys);
  const auto outcomes = explore::final_register_values(
      p.sys, result, {p.reg("r1"), p.reg("r2")});
  const std::vector<std::vector<lang::Value>> expected{{0, 0}, {0, 5}, {1, 5}};
  EXPECT_EQ(outcomes, expected);
}

TEST(Parser, StackMessagePassingMatchesBuilderVersion) {
  auto p = parse_program(R"(
    var d = 0;
    stack library s;
    thread t1 {
      d := 5;
      s.pushR(1);
    }
    thread t2 {
      reg r1;
      reg r2;
      do { r1 <-A s.pop(); } until (r1 == 1);
      r2 <- d;
    }
  )");
  const auto parsed = explore::explore(p.sys);
  const auto parsed_outcomes = explore::final_register_values(
      p.sys, parsed, {p.reg("r1"), p.reg("r2")});

  lang::System sys;
  const auto d = sys.client_var("d", 0);
  const auto s = sys.library_stack("s");
  auto t1 = sys.thread();
  t1.store(d, lang::c(5));
  t1.push_rel(s, lang::c(1));
  auto t2 = sys.thread();
  const auto r1 = t2.reg("r1");
  const auto r2 = t2.reg("r2");
  t2.do_until([&] { t2.pop_acq(r1, s); }, lang::Expr{r1} == lang::c(1));
  t2.load(r2, d);
  const auto built = explore::explore(sys);
  const auto built_outcomes =
      explore::final_register_values(sys, built, {r1, r2});

  EXPECT_EQ(parsed_outcomes, built_outcomes);
  EXPECT_EQ(parsed.stats.states, built.stats.states)
      << "parsed and built programs must induce identical state spaces";
}

TEST(Parser, CasAndFai) {
  auto p = parse_program(R"(
    var x = 0;
    thread t1 {
      reg ok;
      ok <- CAS(x, 0, 7);
    }
    thread t2 {
      reg old;
      old <- FAI(x);
    }
  )");
  const auto result = explore::explore(p.sys);
  const auto outcomes = explore::final_register_values(
      p.sys, result, {p.reg("ok"), p.reg("old")});
  // CAS first: ok=1, FAI returns 7.  FAI first: FAI returns 0, then CAS
  // fails (x=1).  Interleavings with failure reads of intermediate values.
  EXPECT_TRUE(explore::outcome_reachable(p.sys, result, {p.reg("ok"), p.reg("old")},
                                         {1, 7}));
  EXPECT_TRUE(explore::outcome_reachable(p.sys, result, {p.reg("ok"), p.reg("old")},
                                         {0, 0}));
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o[0] == 1 && o[1] == 0)
        << "CAS succeeded yet FAI saw the original 0 after it: impossible";
  }
}

TEST(Parser, LockMethods) {
  auto p = parse_program(R"(
    var d = 0;
    lock library l;
    thread t1 {
      l.acquire();
      d := 5;
      l.release();
    }
    thread t2 {
      reg ok;
      reg r;
      ok <- l.acquire();
      r <- d;
      l.release();
    }
  )");
  const auto result = explore::explore(p.sys);
  EXPECT_EQ(result.stats.blocked, 0u);
  const auto outcomes =
      explore::final_register_values(p.sys, result, {p.reg("r")});
  const std::vector<std::vector<lang::Value>> expected{{0}, {5}};
  EXPECT_EQ(outcomes, expected);
}

TEST(Parser, ControlFlow) {
  auto p = parse_program(R"(
    var x = 0;
    thread t {
      reg i = 3;
      reg sum;
      while (i > 0) {
        sum := sum + i;
        i := i - 1;
      }
      if (sum == 6) { x := 1; } else { x := 2; }
    }
  )");
  const auto result = explore::explore(p.sys);
  ASSERT_EQ(result.final_configs.size(), 1u);
  const auto& mem = result.final_configs[0].mem;
  EXPECT_EQ(mem.op(mem.last_op(p.loc("x"))).value, 1);
}

TEST(Parser, IfWithoutElse) {
  auto p = parse_program(R"(
    var x = 0;
    thread t {
      reg r = 1;
      if (r == 1) { x := 9; }
      r := 0;
    }
  )");
  // Laid out like ThreadBuilder::if_else without an else body: the branch
  // skips the then-block, and no jump follows it.
  const auto& code = p.sys.code(0);
  ASSERT_EQ(code.size(), 3u);
  EXPECT_EQ(code[0].kind, lang::IKind::Branch);
  EXPECT_EQ(code[0].target, 2u);
  EXPECT_EQ(code[1].kind, lang::IKind::Store);
  EXPECT_EQ(code[2].kind, lang::IKind::Assign);
  const auto result = explore::explore(p.sys);
  ASSERT_EQ(result.final_configs.size(), 1u);
  const auto& mem = result.final_configs[0].mem;
  EXPECT_EQ(mem.op(mem.last_op(p.loc("x"))).value, 9);
}

TEST(Parser, ExpressionPrecedence) {
  auto p = parse_program(R"(
    thread t {
      reg a = 2;
      reg b = 3;
      reg r1;
      reg r2;
      reg r3;
      r1 := a + b * 2;
      r2 := (a + b) * 2;
      r3 := even(a) && !(b == 2) || a > b;
    }
  )");
  const auto result = explore::explore(p.sys);
  ASSERT_EQ(result.final_configs.size(), 1u);
  const auto& regs = result.final_configs[0].regs[0];
  EXPECT_EQ(regs[p.reg("r1").id], 8);
  EXPECT_EQ(regs[p.reg("r2").id], 10);
  EXPECT_EQ(regs[p.reg("r3").id], 1);
}

TEST(Parser, CommentsAreIgnored) {
  const auto p = parse_program(R"(
    // leading comment
    var x = 0;   // trailing comment
    thread t {
      x := 1;    // inside a thread
    }
  )");
  EXPECT_EQ(p.sys.code(0).size(), 1u);
}

TEST(Parser, EveryStatementFormRendersPinned) {
  // Every statement form once: step labels, disassembly, witnesses and
  // checkpoints all come from this rendering, and traced runs count the
  // label bytes into visited_bytes, so a parsed program's text is pinned.
  const auto p = parse_program(R"(
    var x = 0;
    var y = 0;
    lock l;
    stack s;
    queue q;
    thread t {
      reg a;
      reg b;
      reg ok;
      reg i;
      a <- s.pop();
      b <-A q.deq();
      x := 1;
      x :=R 2;
      y :=NA 3;
      a <- x;
      a <-A x;
      b <-NA y;
      ok <- CAS(x, 2, 5);
      ok <- CAS(x, 2, 7);
      i <- FAI(x);
      i := i + 1;
      if (i == 6) { a := 1; } else { a := 2; }
      if (a == 2) { b := 0; }
      while (i < 8) { i := i + 1; }
      do { i := i - 1; } until (i <= 6);
      l.acquire();
      l.release();
      ok <- l.acquire();
      l.release();
      s.push(i);
      s.pushR(i + 1);
      q.enq(a);
      q.enqR(b * 2);
      a <- s.pop();
      b <-A s.pop();
      a <- q.deq();
      b <-A q.deq();
    }
  )");
  EXPECT_EQ(p.sys.disassemble(), R"(thread 0:
  0: a <- s.pop()
  1: b <-A q.deq()
  2: x := 1
  3: x :=R 2
  4: y :=NA 3
  5: a <- x
  6: a <-A x
  7: b <-NA y
  8: ok <- CAS(x, 2, 5)
  9: ok <- CAS(x, 2, 7)
  10: i <- FAI(x)
  11: i := (r3 + 1)
  12: if !(r3 == 6) goto 15
  13: a := 1
  14: goto 16
  15: a := 2
  16: if !(r0 == 2) goto 18
  17: b := 0
  18: if !(r3 < 8) goto 21
  19: i := (r3 + 1)
  20: goto 18
  21: i := (r3 - 1)
  22: if !(r3 <= 6) goto 21
  23: l.acquire()
  24: l.release()
  25: ok <- l.acquire()
  26: l.release()
  27: s.push
  28: s.pushR
  29: q.enq
  30: q.enqR
  31: a <- s.pop()
  32: b <-A s.pop()
  33: a <- q.deq()
  34: b <-A q.deq()
)");

  refinement::GraphOptions opts;
  opts.want_labels = true;
  const auto graph = refinement::build_graph(p.sys, opts);
  std::set<std::string> labels;
  for (const auto& edges : graph.labels) {
    labels.insert(edges.begin(), edges.end());
  }
  const std::set<std::string> expected = {
      "t0: a := 1",
      "t0: a <- q.deq() [q]",
      "t0: a <- s.pop() [s]",
      "t0: a <- s.pop() [s] (empty)",
      "t0: a <- x",
      "t0: a <-A x",
      "t0: b <-A q.deq() [q]",
      "t0: b <-A q.deq() [q] (empty)",
      "t0: b <-A s.pop() [s]",
      "t0: b <-NA y",
      "t0: goto 16",
      "t0: goto 18",
      "t0: i := (r3 + 1)",
      "t0: i := (r3 - 1)",
      "t0: i <- FAI(x)",
      "t0: if !(r0 == 2) goto 18 (taken)",
      "t0: if !(r3 < 8) goto 21",
      "t0: if !(r3 < 8) goto 21 (taken)",
      "t0: if !(r3 <= 6) goto 21",
      "t0: if !(r3 <= 6) goto 21 (taken)",
      "t0: if !(r3 == 6) goto 15",
      "t0: l.acquire() [l]",
      "t0: l.release() [l]",
      "t0: ok <- CAS(x, 2, 5) (success)",
      "t0: ok <- CAS(x, 2, 7) (fail)",
      "t0: ok <- l.acquire() [l]",
      "t0: q.enq [q]",
      "t0: q.enqR [q]",
      "t0: s.push [s]",
      "t0: s.pushR [s]",
      "t0: x := 1",
      "t0: x :=R 2",
      "t0: y :=NA 3",
  };
  EXPECT_EQ(labels, expected);
}

// --- error reporting ----------------------------------------------------------

TEST(ParserErrors, UnknownRegister) {
  EXPECT_THROW(parse_program("var x = 0; thread t { r <- x; }"), Error);
}

// Registers are thread-local: naming another thread's register is a
// positioned parse error that names the owning thread, whether it is read,
// assigned, loaded into or the destination of an RMW.
TEST(ParserErrors, ForeignRegister) {
  const std::string owner = "var x = 0; thread t1 { reg a; a := 7; }\n";
  const std::pair<const char*, const char*> cases[] = {
      {"read", "thread t2 { reg b; b := a + 1; }"},
      {"assignment", "thread t2 { reg b; a := 1; }"},
      {"load destination", "thread t2 { reg b; a <- x; }"},
      {"RMW destination", "thread t2 { reg b; a <- FAI(x); }"},
      {"CAS destination", "thread t2 { reg b; a <- CAS(x, 0, 1); }"},
  };
  for (const auto& [what, thread] : cases) {
    try {
      (void)parse_program(owner + thread);
      ADD_FAILURE() << what << ": foreign register accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("parse error at 2:"), std::string::npos)
          << what << ": " << msg;
      EXPECT_NE(msg.find("register 'a' belongs to thread 't1'"),
                std::string::npos)
          << what << ": " << msg;
    }
  }
  // Outline assertions may still name any thread's registers.
  const auto p = parse_program(owner + R"(thread t2 { reg b; b <- x; }
    outline { post t2: done(t1) ==> a == 7; })");
  ASSERT_TRUE(p.outline.has_value());
  EXPECT_TRUE(og::check_outline(p.sys, *p.outline).valid);
}

TEST(ParserErrors, UnknownLocation) {
  EXPECT_THROW(parse_program("thread t { x := 1; }"), Error);
}

TEST(ParserErrors, DuplicateNames) {
  EXPECT_THROW(parse_program("var x = 0; var x = 1; thread t { x := 1; }"),
               Error);
  EXPECT_THROW(parse_program("var x = 0; thread t { reg x; x := 1; }"), Error);
}

TEST(ParserErrors, SharedVariableInExpression) {
  // The paper's Exp_L restriction: expressions are over locals only.
  EXPECT_THROW(parse_program(R"(
    var x = 0;
    var y = 0;
    thread t { y := x + 1; }
  )"),
               Error);
}

TEST(ParserErrors, KindMismatch) {
  EXPECT_THROW(parse_program(R"(
    lock library l;
    thread t { l := 1; }
  )"),
               Error);
  EXPECT_THROW(parse_program(R"(
    var x = 0;
    thread t { x.acquire(); }
  )"),
               Error);
  EXPECT_THROW(parse_program(R"(
    stack library s;
    thread t { s.release(); }
  )"),
               Error);
}

TEST(ParserErrors, ReleasingWriteToRegister) {
  EXPECT_THROW(parse_program("thread t { reg r; r :=R 1; }"), Error);
}

// --- memory-order annotations: the NA orders and their diagnostics ----------

TEST(Parser, NonAtomicAccessesParse) {
  const auto p = parse_program(R"(
    var x = 0;
    thread t {
      reg r;
      x :=NA 1;
      r <-NA x;
    }
  )");
  ASSERT_EQ(p.sys.code(0).size(), 2u);
  EXPECT_EQ(p.sys.code(0)[0].kind, lang::IKind::Store);
  EXPECT_EQ(p.sys.code(0)[0].order, memsem::MemOrder::NonAtomic);
  EXPECT_EQ(p.sys.code(0)[1].kind, lang::IKind::Load);
  EXPECT_EQ(p.sys.code(0)[1].order, memsem::MemOrder::NonAtomic);
}

namespace {

/// The malformed program must be rejected with a message that carries the
/// expected substring (the accepted-orders list, or the specific complaint)
/// and a line:col position.
void expect_order_error(const std::string& src, const std::string& needle) {
  try {
    (void)parse_program(src);
    FAIL() << "expected a parse error for: " << src;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "'" << what << "' should mention '" << needle << "'";
    EXPECT_NE(what.find("3:"), std::string::npos)
        << "'" << what << "' should point at line 3";
  }
}

}  // namespace

TEST(ParserErrors, UnknownStoreOrderListsAcceptedOrders) {
  expect_order_error("var x = 0;\nthread t {\n  x :=RR 1;\n}",
                     "accepted orders are ':=' (relaxed)");
  expect_order_error("var x = 0;\nthread t {\n  x :=Q 1;\n}",
                     "unknown memory order ':=Q'");
}

TEST(ParserErrors, UnknownLoadOrderListsAcceptedOrders) {
  expect_order_error("var x = 0;\nthread t { reg r;\n  r <-B x;\n}",
                     "accepted orders are '<-' (relaxed)");
  expect_order_error("var x = 0;\nthread t { reg r;\n  r <-AA x;\n}",
                     "unknown memory order '<-AA'");
}

TEST(ParserErrors, MemoryOrderOnRegisterAssignment) {
  expect_order_error("thread t {\n  reg r;\n  r :=NA 1;\n}",
                     "register assignment takes no memory order");
}

TEST(ParserErrors, MemoryOrderOnRmwAndMethods) {
  expect_order_error(
      "var x = 0;\nthread t { reg r;\n  r <-A CAS(x, 0, 1);\n}",
      "CAS is always RA");
  expect_order_error("var x = 0;\nthread t { reg r;\n  r <-NA FAI(x);\n}",
                     "FAI is always RA");
  expect_order_error(
      "lock l;\nthread t { reg r;\n  r <-NA l.acquire();\n}",
      "lock methods take no <-NA annotation");
}

TEST(ParserErrors, PopOrderRestrictedToAcquire) {
  expect_order_error(
      "stack s;\nthread t { reg r;\n  r <-NA s.pop();\n}",
      "accepted orders are '<-' (relaxed) and '<-A'");
}

TEST(ParserErrors, PositionInMessage) {
  try {
    (void)parse_program("var x = 0;\nthread t {\n  x ::= 1;\n}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos)
        << "error should point at line 3: " << e.what();
  }
}

TEST(ParserErrors, NoThreads) {
  EXPECT_THROW(parse_program("var x = 0;"), Error);
}

TEST(ParserErrors, MissingUntil) {
  EXPECT_THROW(parse_program(R"(
    thread t { reg r; do { r := 1; } while (r == 0); }
  )"),
               Error);
}


// --- library registers and text-level refinement ------------------------------

TEST(Parser, LibraryRegistersAreTagged) {
  const auto p = parse_program(R"(
    var x = 0;
    thread t {
      reg a;
      reg library b;
      a := 1;
      b := 2;
    }
  )");
  EXPECT_EQ(p.sys.reg_component(0, p.reg("a").id), memsem::Component::Client);
  EXPECT_EQ(p.sys.reg_component(0, p.reg("b").id), memsem::Component::Library);
}

TEST(Parser, TextLevelRefinementMatchesBuilderLevel) {
  // The same abstract-lock vs seqlock refinement question posed through the
  // text front end must agree with the builder-level answer (and even the
  // state counts, since the programs are instruction-for-instruction equal).
  const auto abs = parse_program(R"(
    var d1 = 0;
    var d2 = 0;
    lock library l;
    thread writer {
      reg ok0;
      ok0 <- l.acquire();
      d1 := 5;
      d2 := 5;
      l.release();
    }
    thread reader {
      reg ok1;
      reg r1;
      reg r2;
      ok1 <- l.acquire();
      r1 <- d1;
      r2 <- d2;
      l.release();
    }
  )");
  const auto conc = parse_program(R"(
    var d1 = 0;
    var d2 = 0;
    var library glb = 0;
    thread writer {
      reg ok0;
      reg library r0;
      reg library loc0;
      do {
        do { r0 <-A glb; } until (even(r0));
        loc0 <- CAS(glb, r0, r0 + 1);
      } until (loc0);
      ok0 := 1;
      d1 := 5;
      d2 := 5;
      glb :=R r0 + 2;
    }
    thread reader {
      reg ok1;
      reg r1;
      reg r2;
      reg library rr;
      reg library loc1;
      do {
        do { rr <-A glb; } until (even(rr));
        loc1 <- CAS(glb, rr, rr + 1);
      } until (loc1);
      ok1 := 1;
      r1 <- d1;
      r2 <- d2;
      glb :=R rr + 2;
    }
  )");
  const auto sim = rc11::refinement::check_forward_simulation(abs.sys, conc.sys);
  EXPECT_TRUE(sim.holds) << sim.diagnosis;

  // Cross-check against the builder-level systems.
  rc11::locks::AbstractLock abs_lock;
  const auto abs_built =
      rc11::locks::instantiate(rc11::locks::fig7_client(), abs_lock);
  rc11::locks::SeqLock seq;
  const auto conc_built =
      rc11::locks::instantiate(rc11::locks::fig7_client(), seq);
  const auto sim_built =
      rc11::refinement::check_forward_simulation(abs_built, conc_built);
  EXPECT_EQ(sim.abstract_states, sim_built.abstract_states);
  EXPECT_EQ(sim.concrete_states, sim_built.concrete_states);
  EXPECT_EQ(sim.candidate_pairs, sim_built.candidate_pairs);
}


// --- outline blocks -------------------------------------------------------------

TEST(OutlineParser, Fig3OutlineFromTextIsValid) {
  auto p = parse_program(R"(
    var d = 0;
    stack library s;
    thread producer {
      d := 5;
      s.pushR(1);
    }
    thread consumer {
      reg r1;
      reg r2;
      do { r1 <-A s.pop(); } until (r1 == 1);
      r2 <- d;
    }
    outline {
      at producer 0: !canpop(s, 1) && definite(producer, d, 0) && popempty(s);
      at producer 1: !canpop(s, 1) && definite(producer, d, 5);
      at consumer 1: r1 == 1 ==> definite(consumer, d, 5);
      at consumer 2: definite(consumer, d, 5);
      post consumer: r2 == 5;
    }
  )");
  ASSERT_TRUE(p.outline.has_value());
  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto result = og::check_outline(p.sys, *p.outline, opts);
  EXPECT_TRUE(result.valid) << (result.failures.empty()
                                    ? ""
                                    : result.failures[0].obligation);
}

TEST(OutlineParser, BrokenOutlineFromTextIsRejected) {
  auto p = parse_program(R"(
    var d = 0;
    thread t0 { d := 1; }
    outline { post t0: done(t0) ==> false; }
  )");
  ASSERT_TRUE(p.outline.has_value());
  const auto result = og::check_outline(p.sys, *p.outline);
  EXPECT_FALSE(result.valid);
}

TEST(OutlineParser, InvariantAndPcAtoms) {
  auto p = parse_program(R"(
    var x = 0;
    lock library l;
    thread a {
      l.acquire();
      x := 1;
      l.release();
    }
    thread b {
      l.acquire();
      x := 2;
      l.release();
    }
    outline {
      invariant !(pc(a) in {1, 2} && pc(b) in {1, 2});
      at a 1: held(a, l);
      at b 1: held(b, l);
    }
  )");
  ASSERT_TRUE(p.outline.has_value());
  const auto result = og::check_outline(p.sys, *p.outline);
  EXPECT_TRUE(result.valid);
}

TEST(OutlineParser, CoveredHiddenAndCondAtoms) {
  auto p = parse_program(R"(
    var x = 0;
    var y = 0;
    thread w {
      reg ok;
      y := 7;
      ok <- CAS(x, 0, 1);
    }
    outline {
      at w 2: hidden(x, 0) && covered(x, 1);
      invariant cond(w, x, 99, y, 0);  // vacuous: no write of 99
    }
  )");
  ASSERT_TRUE(p.outline.has_value());
  const auto result = og::check_outline(p.sys, *p.outline);
  EXPECT_TRUE(result.valid) << (result.failures.empty()
                                    ? ""
                                    : result.failures[0].obligation);
}

TEST(OutlineParser, Errors) {
  // unknown thread
  EXPECT_THROW(parse_program(R"(
    thread t { reg r; r := 1; }
    outline { post ghost: true; }
  )"),
               Error);
  // unknown atom
  EXPECT_THROW(parse_program(R"(
    thread t { reg r; r := 1; }
    outline { post t: frobnicate(t); }
  )"),
               Error);
  // statement after the outline block
  EXPECT_THROW(parse_program(R"(
    thread t { reg r; r := 1; }
    outline { post t: true; }
    thread late { reg q; q := 1; }
  )"),
               Error);
  // pc annotation out of range
  EXPECT_THROW(parse_program(R"(
    thread t { reg r; r := 1; }
    outline { at t 99: true; }
  )"),
               Error);
}

/// The message of the parse error `source` raises ("" if it parses).
std::string parse_error(const std::string& source) {
  try {
    (void)parse_program(source);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Thread b has two instructions, so its program points are 0, 1 and the
// terminal pc 2.
constexpr const char* kTwoInstrB = R"(
var x = 0;
thread a { x := 1; }
thread b { reg r; r <- x; r := 7; }
outline {
)";

TEST(OutlineParser, PcLiteralsOutsideTheThreadArePositionedErrors) {
  const std::string pre = kTwoInstrB;
  struct Case {
    std::string body;
    std::string where;  // "parse error at L:C:"
    std::string pc;
  };
  const std::vector<Case> cases{
      // 2^32 used to wrap to pc 0 (annotating pc 0) ...
      {"  at b 4294967296: r == 7;\n}", "parse error at 6:8:", "4294967296"},
      // ... and to make pc(b) == 2^32 mean pc(b) == 0.
      {"  invariant pc(b) == 4294967296 ==> false;\n}",
       "parse error at 6:22:", "4294967296"},
      {"  invariant !(pc(b) in {0, 4294967297});\n}", "parse error at 6:28:",
       "4294967297"},
      {"  invariant !(pc(b) in {0, -1});\n}", "parse error at 6:28:", "-1"},
      // Past the terminal pc: used to be an unpositioned annotate() error.
      {"  at b 7: r == 7;\n}", "parse error at 6:8:", "7"},
      {"  at b 3: r == 7;\n}", "parse error at 6:8:", "3"},
      {"  invariant pc(b) == 3;\n}", "parse error at 6:22:", "3"},
  };
  for (const auto& c : cases) {
    const auto msg = parse_error(pre + c.body);
    EXPECT_EQ(msg.rfind(c.where, 0), 0u) << c.body << " -> " << msg;
    EXPECT_NE(msg.find("pc " + c.pc + " is out of range for thread 'b' "
                       "(pcs 0..2)"),
              std::string::npos)
        << c.body << " -> " << msg;
  }
}

TEST(OutlineParser, TerminalPcIsAProgramPoint) {
  auto p = parse_program(std::string(kTwoInstrB) + R"(
  at b 2: r == 7;
  invariant pc(b) == 2 ==> r == 7;
  invariant pc(b) in {0, 1, 2};
}
)");
  ASSERT_TRUE(p.outline.has_value());
  EXPECT_EQ(p.outline->at(1, 2).name(), "r0@t1=7");
  const auto result = og::check_outline(p.sys, *p.outline);
  EXPECT_TRUE(result.valid);
}

TEST(Parser, IntegerLiteralsThatOverflowArePositionedErrors) {
  const auto msg = parse_error(R"(var x = 0;
thread a { x := 99999999999999999999; }
)");
  EXPECT_EQ(msg.rfind("parse error at 2:17:", 0), 0u) << msg;
  EXPECT_NE(msg.find("integer literal 99999999999999999999 is too large"),
            std::string::npos)
      << msg;
  // The largest literal still lexes.
  EXPECT_NO_THROW(parse_program(R"(var x = 0;
thread a { x := 9223372036854775807; }
)"));
}

TEST(OutlineParser, EveryShippedOutlineParses) {
  // The corpus and benchmark programs with an outline block, checked against
  // the pc range rule above.
  namespace fs = std::filesystem;
  int outlines = 0;
  for (const char* dir : {"/tools/programs", "/perfbench/programs"}) {
    const std::string path = std::string(RC11_SRC_DIR) + dir;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() != ".rc11") continue;
      const auto p = parser::parse_file(entry.path().string());
      if (p.outline) ++outlines;
    }
  }
  EXPECT_GE(outlines, 3);
}

}  // namespace
