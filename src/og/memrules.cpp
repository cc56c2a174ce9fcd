#include "og/memrules.hpp"

#include "assertions/assertions.hpp"
#include "lang/system.hpp"

namespace rc11::og {

namespace asrt = rc11::assertions;
using lang::c;
using lang::Config;
using lang::IKind;
using lang::Instr;
using lang::LocId;
using lang::System;
using lang::ThreadId;

namespace {

struct Harness {
  System sys;
  LocId x = 0;
  LocId y = 0;
  lang::Reg ra, rb, rc, rd;
};

/// Message passing (t0 publishes y = 5 via a releasing x := 1, t1 consumes)
/// plus an RMW thread competing on both variables — rich enough to produce
/// non-vacuous instances for every rule in the catalogue.
Harness make_harness() {
  Harness h;
  h.x = h.sys.client_var("x", 0);
  h.y = h.sys.client_var("y", 0);
  auto t0 = h.sys.thread();
  t0.store(h.y, c(5));
  t0.store_rel(h.x, c(1));
  t0.store(h.x, c(2));
  auto t1 = h.sys.thread();
  h.ra = t1.reg("ra");
  h.rb = t1.reg("rb");
  t1.load_acq(h.ra, h.x);
  t1.load(h.rb, h.y);
  auto t2 = h.sys.thread();
  h.rc = t2.reg("rc");
  h.rd = t2.reg("rd");
  t2.cas(h.rc, h.x, c(0), c(7));
  t2.fai(h.rd, h.y);
  return h;
}

bool modifies(const Instr& in, LocId x) {
  return (in.kind == IKind::Store || in.kind == IKind::Cas ||
          in.kind == IKind::Fai) &&
         in.loc == x;
}

}  // namespace

std::vector<MemoryRuleResult> check_memory_rules() {
  Harness h = make_harness();
  const auto x = h.x;
  const auto y = h.y;
  std::vector<MemoryRuleResult> results;

  // M1: {[x = 0]_0} x-store by t0 {[x = new]_0}.
  {
    const auto r = check_triple(
        h.sys, asrt::definite_obs(0, x, 0),
        [x](ThreadId t, const Instr& in) {
          return t == 0 && in.kind == IKind::Store && in.loc == x;
        },
        [x](const System&, const Config&, const Config& after) {
          const auto last = after.mem.last_op(x);
          return after.mem.view_front(0, x) == last;
        });
    results.push_back({"M1", "{[x = u]_t} x := v (t) {[x = v]_t}", r.valid,
                       r.instances_checked});
  }
  // M2: {[x = 0]_1} ra <- x (t1) {ra = 0}.
  {
    const auto r = check_triple(
        h.sys, asrt::definite_obs(1, x, 0),
        [x](ThreadId t, const Instr& in) {
          return t == 1 && in.kind == IKind::Load && in.loc == x;
        },
        [&](const System&, const Config&, const Config& after) {
          return after.regs[1][h.ra.id] == 0;
        });
    results.push_back({"M2", "{[x = u]_t} r <- x (t) {r = u}", r.valid,
                       r.instances_checked});
  }
  // M3: {<x = 1>[y = 5]_1} ra <-A x (t1) {ra = 1 ==> [y = 5]_1}.
  {
    const auto r = check_triple(
        h.sys, asrt::cond_obs(1, x, 1, y, 5),
        [x](ThreadId t, const Instr& in) {
          return t == 1 && in.kind == IKind::Load && in.loc == x &&
                 in.order == memsem::MemOrder::Acquire;
        },
        [&](const System& s, const Config&, const Config& after) {
          return after.regs[1][h.ra.id] != 1 ||
                 asrt::definite_obs(1, y, 5).eval(s, after);
        });
    results.push_back(
        {"M3", "{<x = u>[y = v]_t} r <-A x (t) {r = u ==> [y = v]_t}",
         r.valid, r.instances_checked});
  }
  // M4: {[y = 5]_0 && x-pristine(1)} x :=R 1 (t0) {<x = 1>[y = 5]_1}.
  {
    const auto pristine = asrt::pred(
        "no-write-of-1-to-x", [x](const System&, const Config& cfg) {
          for (const auto w : cfg.mem.mo(x)) {
            if (cfg.mem.op(w).value == 1) return false;
          }
          return true;
        });
    const auto r = check_triple(
        h.sys, asrt::definite_obs(0, y, 5) && pristine,
        [x](ThreadId t, const Instr& in) {
          return t == 0 && in.kind == IKind::Store && in.loc == x &&
                 in.order == memsem::MemOrder::Release;
        },
        [x, y](const System& s, const Config&, const Config& after) {
          return asrt::cond_obs(1, x, 1, y, 5).eval(s, after);
        });
    results.push_back(
        {"M4", "{[y = v]_t && x-pristine} x :=R u (t) {<x = u>[y = v]_t'}",
         r.valid, r.instances_checked});
  }
  // M5: {[y = 5]_0} any step by t' != 0 that cannot modify y {[y = 5]_0}.
  {
    const auto def = asrt::definite_obs(0, y, 5);
    const auto r = check_triple(
        h.sys, def,
        [y](ThreadId t, const Instr& in) {
          return t != 0 && !modifies(in, y);
        },
        [def](const System& s, const Config&, const Config& after) {
          return def.eval(s, after);
        });
    results.push_back(
        {"M5", "{[x = u]_t} non-modifying step by t' {[x = u]_t}", r.valid,
         r.instances_checked});
  }
  // M6: {<x = 1>_1} any step by t' != 1 {<x = 1>_1}.
  {
    const auto pos = asrt::possible_obs(1, x, 1);
    const auto r = check_triple(
        h.sys, pos,
        [](ThreadId t, const Instr&) { return t != 1; },
        [pos](const System& s, const Config&, const Config& after) {
          return pos.eval(s, after);
        });
    results.push_back({"M6", "{<x = u>_t} any step by t' {<x = u>_t}",
                       r.valid, r.instances_checked});
  }
  // M7: {C_x^0} rc <- CAS(x, 0, 7) (t2), success {[x = 7]_2}.
  {
    const auto r = check_triple(
        h.sys, asrt::covered_var(x, 0),
        [x](ThreadId t, const Instr& in) {
          return t == 2 && in.kind == IKind::Cas && in.loc == x;
        },
        [&](const System& s, const Config&, const Config& after) {
          return after.regs[2][h.rc.id] != 1 ||
                 asrt::definite_obs(2, x, 7).eval(s, after);
        });
    results.push_back(
        {"M7", "{C_x^u} r <- CAS(x, u, v) success (t) {[x = v]_t}", r.valid,
         r.instances_checked});
  }
  // M8: {true} rd <- FAI(y) (t2) {<y = rd + 1>_2}.
  {
    const auto r = check_triple(
        h.sys, asrt::Assertion::always(),
        [y](ThreadId t, const Instr& in) {
          return t == 2 && in.kind == IKind::Fai && in.loc == y;
        },
        [&](const System& s, const Config&, const Config& after) {
          const auto rd = after.regs[2][h.rd.id];
          return asrt::possible_obs(2, y, rd + 1).eval(s, after);
        });
    results.push_back({"M8", "{true} r <- FAI(x) (t) {<x = r + 1>_t}",
                       r.valid, r.instances_checked});
  }
  // M9: {H_x^0} any step that cannot modify x {H_x^0}.
  {
    const auto hidden = asrt::hidden_var(x, 0);
    const auto r = check_triple(
        h.sys, hidden,
        [x](ThreadId, const Instr& in) { return !modifies(in, x); },
        [hidden](const System& s, const Config&, const Config& after) {
          return hidden.eval(s, after);
        });
    results.push_back({"M9", "{H_x^u} non-modifying step {H_x^u}", r.valid,
                       r.instances_checked});
  }
  return results;
}

}  // namespace rc11::og
