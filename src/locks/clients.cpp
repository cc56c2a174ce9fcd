#include "locks/clients.hpp"

#include "support/diagnostics.hpp"

namespace rc11::locks {

using lang::c;
using lang::Expr;

ClientProgram fig7_client(ClientArtifacts* artifacts) {
  return [artifacts](System& sys, LockObject& lock) {
    const auto d1 = sys.client_var("d1", 0);
    const auto d2 = sys.client_var("d2", 0);

    auto t0 = sys.thread();
    auto ok0 = t0.reg("ok0");
    lock.emit_acquire(t0, ok0);
    t0.store(d1, c(5));
    t0.store(d2, c(5));
    lock.emit_release(t0);

    auto t1 = sys.thread();
    auto ok1 = t1.reg("ok1");
    auto r1 = t1.reg("r1");
    auto r2 = t1.reg("r2");
    lock.emit_acquire(t1, ok1);
    t1.load(r1, d1);
    t1.load(r2, d2);
    lock.emit_release(t1);

    if (artifacts != nullptr) {
      artifacts->vars = {d1, d2};
      artifacts->regs = {ok0, ok1, r1, r2};
    }
  };
}

ClientProgram mgc_client(unsigned threads, unsigned rounds,
                         ClientArtifacts* artifacts) {
  support::require(threads >= 1 && rounds >= 1,
                   "mgc_client needs at least one thread and one round");
  return [threads, rounds, artifacts](System& sys, LockObject& lock) {
    const auto x = sys.client_var("x", 0);
    if (artifacts != nullptr) {
      artifacts->vars = {x};
      artifacts->regs.clear();
    }
    for (unsigned t = 0; t < threads; ++t) {
      auto tb = sys.thread();
      auto ok = tb.reg("ok");
      auto r = tb.reg("r");
      if (artifacts != nullptr) {
        artifacts->regs.push_back(ok);
        artifacts->regs.push_back(r);
      }
      for (unsigned k = 0; k < rounds; ++k) {
        lock.emit_acquire(tb, ok);
        const auto v = static_cast<Value>(t * 100 + k + 1);
        tb.store(x, c(v));
        tb.load(r, x);
        lock.emit_release(tb);
      }
    }
  };
}

ClientProgram counter_client(unsigned threads, unsigned rounds,
                             ClientArtifacts* artifacts) {
  support::require(threads >= 1 && rounds >= 1,
                   "counter_client needs at least one thread and one round");
  return [threads, rounds, artifacts](System& sys, LockObject& lock) {
    const auto x = sys.client_var("x", 0);
    if (artifacts != nullptr) {
      artifacts->vars = {x};
      artifacts->regs.clear();
    }
    for (unsigned t = 0; t < threads; ++t) {
      auto tb = sys.thread();
      auto ok = tb.reg("ok");
      auto r = tb.reg("r");
      if (artifacts != nullptr) {
        artifacts->regs.push_back(r);
      }
      for (unsigned k = 0; k < rounds; ++k) {
        lock.emit_acquire(tb, ok);
        tb.load(r, x);
        tb.store(x, Expr{r} + c(1));
        lock.emit_release(tb);
      }
    }
  };
}

ClientProgram worker_client(unsigned threads, unsigned rounds, unsigned work,
                            ClientArtifacts* artifacts) {
  support::require(threads >= 1 && rounds >= 1 && work >= 1,
                   "worker_client needs threads, rounds and work >= 1");
  return [threads, rounds, work, artifacts](System& sys, LockObject& lock) {
    const auto x = sys.client_var("x", 0);
    if (artifacts != nullptr) {
      artifacts->vars = {x};
      artifacts->regs.clear();
    }
    for (unsigned t = 0; t < threads; ++t) {
      auto tb = sys.thread();
      auto ok = tb.reg("ok");
      auto r = tb.reg("r");
      auto v = tb.reg("v");
      if (artifacts != nullptr) {
        artifacts->regs.push_back(r);
      }
      for (unsigned k = 0; k < rounds; ++k) {
        lock.emit_acquire(tb, ok);
        tb.load(r, x);
        tb.assign(v, Expr{r} + c(1));
        for (unsigned w = 1; w < work; ++w) {
          tb.assign(v, Expr{v} + c(0));
        }
        tb.store(x, Expr{v});
        lock.emit_release(tb);
      }
    }
  };
}

}  // namespace rc11::locks
