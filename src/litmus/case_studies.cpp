#include "litmus/case_studies.hpp"

#include "explore/explorer.hpp"

namespace rc11::litmus {

using lang::c;
using lang::Expr;
using lang::LocId;
using lang::Value;

MutexCaseStudy peterson_counter() {
  MutexCaseStudy study;
  study.name = "peterson";
  auto& sys = study.sys;
  study.x = sys.client_var("x", 0);
  const auto flag0 = sys.client_var("flag0", 0);
  const auto flag1 = sys.client_var("flag1", 0);
  const auto turn = sys.client_var("turn", 0);

  const auto build_thread = [&](LocId my_flag, LocId other_flag, Value my_id) {
    auto tb = sys.thread();
    auto rf = tb.reg("rf");
    auto rt = tb.reg("rt");
    auto rx = tb.reg("rx");
    tb.store_rel(my_flag, c(1));
    tb.store_rel(turn, c(1 - my_id));
    tb.do_until(
        [&] {
          tb.load_acq(rf, other_flag);
          tb.load_acq(rt, turn);
        },
        Expr{rf} == c(0) || Expr{rt} == c(my_id));
    tb.load(rx, study.x);
    tb.store(study.x, Expr{rx} + c(1));
    tb.store_rel(my_flag, c(0));
  };
  build_thread(flag0, flag1, 0);
  build_thread(flag1, flag0, 1);
  return study;
}

MutexCaseStudy dekker_counter() {
  MutexCaseStudy study;
  study.name = "dekker";
  auto& sys = study.sys;
  study.x = sys.client_var("x", 0);
  const auto flag0 = sys.client_var("flag0", 0);
  const auto flag1 = sys.client_var("flag1", 0);
  const auto turn = sys.client_var("turn", 0);

  const auto build_thread = [&](LocId my_flag, LocId other_flag, Value my_id) {
    auto tb = sys.thread();
    auto rf = tb.reg("rf");
    auto rt = tb.reg("rt");
    auto rx = tb.reg("rx");
    tb.store_rel(my_flag, c(1));
    tb.load_acq(rf, other_flag);
    tb.while_(Expr{rf} == c(1), [&] {
      tb.load_acq(rt, turn);
      tb.if_else(Expr{rt} != c(my_id), [&] {
        // Not my turn: back off politely and wait for the turn.
        tb.store_rel(my_flag, c(0));
        tb.do_until([&] { tb.load_acq(rt, turn); }, Expr{rt} == c(my_id));
        tb.store_rel(my_flag, c(1));
      });
      tb.load_acq(rf, other_flag);
    });
    tb.load(rx, study.x);
    tb.store(study.x, Expr{rx} + c(1));
    tb.store_rel(turn, c(1 - my_id));
    tb.store_rel(my_flag, c(0));
  };
  build_thread(flag0, flag1, 0);
  build_thread(flag1, flag0, 1);
  return study;
}

BarrierCaseStudy barrier_exchange() {
  BarrierCaseStudy study;
  auto& sys = study.sys;
  const auto a = sys.client_var("a", 0);
  const auto b = sys.client_var("b", 0);
  const auto count = sys.library_var("count", 0);
  const auto sense = sys.library_var("sense", 0);

  const auto build_thread = [&](LocId mine, LocId other, lang::Reg* out) {
    auto tb = sys.thread();
    auto arrived = tb.reg("arrived");
    auto spin = tb.reg("spin");
    auto r = tb.reg("r");
    tb.store(mine, c(1));
    tb.fai(arrived, count);
    tb.if_else(
        Expr{arrived} == c(1),
        [&] { tb.store_rel(sense, c(1)); },
        [&] {
          tb.do_until([&] { tb.load_acq(spin, sense); }, Expr{spin} == c(1));
        });
    tb.load(r, other);
    *out = r;
  };
  build_thread(a, b, &study.r0);
  build_thread(b, a, &study.r1);
  return study;
}

bool increment_lost(const MutexCaseStudy& study,
                    const memsem::SemanticsOptions& options,
                    unsigned num_threads) {
  auto sys = study.sys;  // copy so the caller's study stays reusable
  sys.set_options(options);
  explore::ExploreOptions eopts;
  eopts.num_threads = num_threads;
  const auto result = explore::explore(sys, eopts);
  for (const auto& cfg : result.final_configs) {
    if (cfg.mem.op(cfg.mem.last_op(study.x)).value != 2) return true;
  }
  return false;
}

}  // namespace rc11::litmus
