#include "og/lemma3.hpp"

#include "assertions/assertions.hpp"
#include "lang/system.hpp"

namespace rc11::og {

namespace asrt = rc11::assertions;
using lang::c;
using lang::IKind;
using lang::Instr;
using lang::LocId;
using lang::System;
using memsem::OpKind;

namespace {

struct Harness {
  System sys;
  LocId x = 0;
  LocId l = 0;
};

Harness make_harness(unsigned writer_rounds) {
  Harness h;
  h.x = h.sys.client_var("x", 0);
  h.l = h.sys.library_lock("l");
  auto t0 = h.sys.thread();
  for (unsigned k = 0; k < writer_rounds; ++k) {
    t0.acquire(h.l);
    t0.store(h.x, c(static_cast<lang::Value>(k + 1)));
    t0.release(h.l);
  }
  auto t1 = h.sys.thread();
  auto r1 = t1.reg("r1");
  t1.acquire(h.l);
  t1.load(r1, h.x);
  t1.release(h.l);
  return h;
}

bool any_acquire(lang::ThreadId, const Instr& in) {
  return in.kind == IKind::LockAcquire;
}

bool any_lock_method(lang::ThreadId, const Instr& in) {
  return in.kind == IKind::LockAcquire || in.kind == IKind::LockRelease;
}

lang::Value new_version(const lang::Config& after, LocId l) {
  return after.mem.op(after.mem.last_op(l)).value;
}

}  // namespace

std::vector<Lemma3RuleResult> check_lemma3_rules(unsigned writer_rounds) {
  Harness h = make_harness(writer_rounds);
  const auto l = h.l;
  const auto x = h.x;
  std::vector<Lemma3RuleResult> results;

  // Rule (1): {H_{l.release_2}} Acquire(v) {v > 3}.
  {
    const auto r = check_triple(
        h.sys, asrt::lock_hidden(l, OpKind::LockRelease, 2), any_acquire,
        [l](const System&, const lang::Config&, const lang::Config& after) {
          return new_version(after, l) > 3;
        });
    results.push_back({1, "{H_l.release_u} Acquire(v) {v > u+1}", r.valid,
                       r.instances_checked});
  }
  // Rule (2): {H_{l.release_2}} m(v) {H_{l.release_2}}.
  {
    const auto hidden = asrt::lock_hidden(l, OpKind::LockRelease, 2);
    const auto r = check_triple(
        h.sys, hidden, any_lock_method,
        [hidden](const System& s, const lang::Config&, const lang::Config& a) {
          return hidden.eval(s, a);
        });
    results.push_back({2, "{H_l.release_u} m(v) {H_l.release_u}", r.valid,
                       r.instances_checked});
  }
  // Rule (3): {[l.release_2]_0} Acquire(v)_0 {[l.acquire_3]_0}.
  {
    const auto r = check_triple(
        h.sys, asrt::lock_definite(0, l, OpKind::LockRelease, 2),
        [](lang::ThreadId t, const Instr& in) {
          return t == 0 && in.kind == IKind::LockAcquire;
        },
        [l](const System& s, const lang::Config&, const lang::Config& a) {
          return asrt::lock_definite(0, l, OpKind::LockAcquire, 3).eval(s, a);
        });
    results.push_back({3, "{[l.release_u]_t} Acquire(v)_t {[l.acquire_u+1]_t}",
                       r.valid, r.instances_checked});
  }
  // Rule (4): {[x = 1]_0} m(v)_1 {[x = 1]_0}.
  {
    const auto def = asrt::definite_obs(0, x, 1);
    const auto r = check_triple(
        h.sys, def,
        [](lang::ThreadId t, const Instr& in) {
          return t == 1 && (in.kind == IKind::LockAcquire ||
                            in.kind == IKind::LockRelease);
        },
        [def](const System& s, const lang::Config&, const lang::Config& a) {
          return def.eval(s, a);
        });
    results.push_back({4, "{[x = u]_t} m(v)_t' {[x = u]_t}", r.valid,
                       r.instances_checked});
  }
  // Rule (5): {⟨l.release_2⟩[x = 1]_1} Acquire(v)_1 {v = 3 ==> [x = 1]_1}.
  {
    const auto r = check_triple(
        h.sys, asrt::lock_cond_obs(1, l, 2, x, 1),
        [](lang::ThreadId t, const Instr& in) {
          return t == 1 && in.kind == IKind::LockAcquire;
        },
        [l, x](const System& s, const lang::Config&, const lang::Config& a) {
          return new_version(a, l) != 3 ||
                 asrt::definite_obs(1, x, 1).eval(s, a);
        });
    results.push_back(
        {5, "{<l.release_u>[x = n]_t} Acquire(v)_t {v = u+1 ==> [x = n]_t}",
         r.valid, r.instances_checked});
  }
  // Rule (6): {¬⟨l.release_2⟩_1 ∧ [x = 1]_0} Release(2)_0
  //           {⟨l.release_2⟩[x = 1]_1}.
  {
    const auto pre =
        !asrt::lock_possible_release(1, l, 2) && asrt::definite_obs(0, x, 1);
    const auto r = check_triple(
        h.sys, pre,
        [](lang::ThreadId t, const Instr& in) {
          return t == 0 && in.kind == IKind::LockRelease;
        },
        [l, x](const System& s, const lang::Config&, const lang::Config& a) {
          return new_version(a, l) != 2 ||
                 asrt::lock_cond_obs(1, l, 2, x, 1).eval(s, a);
        });
    results.push_back(
        {6, "{!<l.release_u>_t' && [x = v]_t} Release(u)_t {<l.release_u>[x = v]_t'}",
         r.valid, r.instances_checked});
  }
  return results;
}

}  // namespace rc11::og
