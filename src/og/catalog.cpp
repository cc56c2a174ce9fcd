#include "og/catalog.hpp"

#include "memsem/types.hpp"

namespace rc11::og {

namespace asrt = rc11::assertions;
using asrt::Assertion;
using asrt::implies;
using lang::c;
using lang::Expr;
using memsem::OpKind;

namespace {

/// Builds the Fig. 3 program.  Thread layout (compiled pcs):
///   t0:  0: d := 5        t1:  0: r1 <- s.popA()
///        1: s.pushR(1)         1: if r1 != 1 goto 0
///                              2: r2 <- d
Fig3Example build_fig3_program() {
  Fig3Example ex{System{}, 0, 0, {}, {}, ProofOutline{System{}}};
  ex.d = ex.sys.client_var("d", 0);
  ex.s = ex.sys.library_stack("s");

  auto t0 = ex.sys.thread();
  t0.store(ex.d, c(5));
  t0.push_rel(ex.s, c(1));

  auto t1 = ex.sys.thread();
  ex.r1 = t1.reg("r1");
  ex.r2 = t1.reg("r2");
  t1.do_until([&] { t1.pop_acq(ex.r1, ex.s); }, Expr{ex.r1} == c(1));
  t1.load(ex.r2, ex.d);

  ex.outline = ProofOutline{ex.sys};
  return ex;
}

}  // namespace

Fig3Example make_fig3() {
  Fig3Example ex = build_fig3_program();
  ProofOutline& o = ex.outline;

  // Thread 1 (t0): the producer.
  // pc0 {¬⟨s.pop_1⟩ ∧ [d = 0]_1 ∧ [s.pop_emp]}: nothing published yet.
  o.annotate(0, 0,
             !asrt::stack_can_pop(ex.s, 1) && asrt::definite_obs(0, ex.d, 0) &&
                 asrt::stack_pop_empty_only(ex.s));
  // pc1 {¬⟨s.pop_1⟩ ∧ [d = 5]_1}: the data is written, not yet published.
  o.annotate(0, 1,
             !asrt::stack_can_pop(ex.s, 1) && asrt::definite_obs(0, ex.d, 5));
  // post {true}.

  // Thread 2 (t1): the consumer.
  // Loop head and loop test {⟨s.pop_1⟩[d = 5]_2}: if the message can be
  // popped, popping it will publish d = 5.
  const Assertion key = asrt::stack_cond_obs(ex.s, 1, ex.d, 5);
  o.annotate(1, 0, key);
  // After the pop, additionally r1 = 1 ⇒ [d = 5]_2 (the acquiring pop of the
  // releasing push has synchronised).
  o.annotate(1, 1,
             key && implies(asrt::reg_eq(ex.r1, 1),
                            asrt::definite_obs(1, ex.d, 5)));
  // After the loop {[d = 5]_2}.
  o.annotate(1, 2, asrt::definite_obs(1, ex.d, 5));
  // post {r2 = 5}.
  o.postcondition(1, asrt::reg_eq(ex.r2, 5));
  return ex;
}

Fig3Example make_fig3_broken() {
  Fig3Example ex = build_fig3_program();
  // Claims the consumer reads the *stale* value — the checker must refute it.
  ex.outline.postcondition(1, asrt::reg_eq(ex.r2, 0));
  return ex;
}

namespace {

/// Builds the Fig. 7 program.  Thread layout (compiled pcs):
///   t0:  0: l.Acquire()       t1:  0: rl <- l.Acquire()   (version ghost)
///        1: d1 := 5                1: r1 <- d1
///        2: d2 := 5                2: r2 <- d2
///        3: l.Release()            3: l.Release()
Fig7Example build_fig7_program() {
  Fig7Example ex{System{}, 0, 0, 0, {}, {}, {}, ProofOutline{System{}}};
  ex.d1 = ex.sys.client_var("d1", 0);
  ex.d2 = ex.sys.client_var("d2", 0);
  ex.l = ex.sys.library_lock("l");

  auto t0 = ex.sys.thread();
  t0.acquire(ex.l);
  t0.store(ex.d1, c(5));
  t0.store(ex.d2, c(5));
  t0.release(ex.l);

  auto t1 = ex.sys.thread();
  ex.rl = t1.reg("rl");
  ex.r1 = t1.reg("r1");
  ex.r2 = t1.reg("r2");
  t1.acquire_version(ex.l, ex.rl);
  t1.load(ex.r1, ex.d1);
  t1.load(ex.r2, ex.d2);
  t1.release(ex.l);

  ex.outline = ProofOutline{ex.sys};
  return ex;
}

}  // namespace

Fig7Example make_fig7() {
  Fig7Example ex = build_fig7_program();
  ProofOutline& o = ex.outline;
  const auto cs0 = asrt::pc_in(0, {1, 2, 3});  // thread 1 in critical section
  const auto cs1 = asrt::pc_in(1, {1, 2, 3});  // thread 2 in critical section

  // Inv = ¬(pc1 ∈ CS ∧ pc2 ∈ CS) ∧ (rl ∈ {1, 3} once acquired): mutual
  // exclusion plus the two possible versions of thread 2's acquire.
  o.invariant(!(cs0 && cs1) &&
              implies(asrt::pc_in(1, {1, 2, 3, 4}),
                      asrt::reg_in(ex.rl, {1, 3})));

  // --- thread 1 (t0), the writer -------------------------------------------
  // pc0: data untouched; if thread 2 already entered its critical section it
  // acquired first, so acquire_1 is the only uncovered maximal operation
  // (the paper's C_{l.acquire_1} conjunct).
  o.annotate(0, 0,
             asrt::definite_obs(0, ex.d1, 0) && asrt::definite_obs(0, ex.d2, 0) &&
                 implies(cs1, asrt::lock_covered(ex.l, OpKind::LockAcquire, 1)));
  // In the critical section: t0 holds the lock; while thread 2 has not yet
  // acquired, no release_2 is observable to it (the paper's P_po conjunct);
  // data is written in program order.
  const auto holds = asrt::lock_held_by(0, ex.l);
  const auto no_rel2_for_t1 =
      implies(asrt::at_pc(1, 0), !asrt::lock_possible_release(1, ex.l, 2));
  o.annotate(0, 1,
             holds && no_rel2_for_t1 && asrt::definite_obs(0, ex.d1, 0) &&
                 asrt::definite_obs(0, ex.d2, 0));
  o.annotate(0, 2,
             holds && no_rel2_for_t1 && asrt::definite_obs(0, ex.d1, 5) &&
                 asrt::definite_obs(0, ex.d2, 0));
  o.annotate(0, 3,
             holds && no_rel2_for_t1 && asrt::definite_obs(0, ex.d1, 5) &&
                 asrt::definite_obs(0, ex.d2, 5));
  // post: if thread 2 has not yet acquired, thread 1 went first, so its
  // release_2 publishes both writes (the paper's Q1' property
  // ⟨l.release_2⟩[d1 = 5]_2 ∧ ⟨l.release_2⟩[d2 = 5]_2), and the lock
  // initialisation is hidden (H_{l.init_0}).
  o.postcondition(
      0, implies(asrt::at_pc(1, 0),
                 asrt::lock_cond_obs(1, ex.l, 2, ex.d1, 5) &&
                     asrt::lock_cond_obs(1, ex.l, 2, ex.d2, 5)) &&
             asrt::lock_hidden_init(ex.l));

  // --- thread 2 (t1), the reader -------------------------------------------
  // In the critical section: the version determines what is visible —
  // rl = 1 (thread 2 first): both variables still definitely 0;
  // rl = 3 (after thread 1): the acquire synchronised with release_2, so
  // both variables are definitely 5.
  const auto first = asrt::reg_eq(ex.rl, 1);
  const auto second = asrt::reg_eq(ex.rl, 3);
  const auto vis =
      implies(first,
              asrt::definite_obs(1, ex.d1, 0) && asrt::definite_obs(1, ex.d2, 0)) &&
      implies(second,
              asrt::definite_obs(1, ex.d1, 5) && asrt::definite_obs(1, ex.d2, 5));
  const auto holds1 = asrt::lock_held_by(1, ex.l);
  o.annotate(1, 1, holds1 && vis && asrt::lock_hidden_init(ex.l));
  o.annotate(1, 2,
             holds1 && vis &&
                 implies(first, asrt::reg_eq(ex.r1, 0)) &&
                 implies(second, asrt::reg_eq(ex.r1, 5)));
  const auto regs_final =
      implies(first, asrt::reg_eq(ex.r1, 0) && asrt::reg_eq(ex.r2, 0)) &&
      implies(second, asrt::reg_eq(ex.r1, 5) && asrt::reg_eq(ex.r2, 5));
  o.annotate(1, 3, holds1 && regs_final);
  // post: the paper's Q3 — r1 = r2, each 0 or 5 depending on the order.
  o.postcondition(1, regs_final);
  return ex;
}

Fig7Example make_fig7_broken() {
  Fig7Example ex = build_fig7_program();
  // Wrongly claims thread 2 sees fresh data even when it acquired first.
  ex.outline.postcondition(
      1, implies(asrt::reg_eq(ex.rl, 1), asrt::reg_eq(ex.r1, 5)));
  return ex;
}

}  // namespace rc11::og
