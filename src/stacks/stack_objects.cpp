#include "stacks/stack_objects.hpp"

#include "memsem/types.hpp"
#include "support/diagnostics.hpp"

namespace rc11::stacks {

using lang::c;
using memsem::Component;
using memsem::kStackEmpty;

// --- abstract stack -----------------------------------------------------------

void AbstractStack::declare(System& sys) { s_ = sys.library_stack("s"); }

void AbstractStack::emit_push(ThreadBuilder& tb, Expr value, bool releasing) {
  if (releasing) {
    tb.push_rel(s_, std::move(value), "s.pushR");
  } else {
    tb.push(s_, std::move(value), "s.push");
  }
}

void AbstractStack::emit_pop(ThreadBuilder& tb, Reg dst, bool acquiring) {
  if (acquiring) {
    tb.pop_acq(dst, s_, "r <- s.popA()");
  } else {
    tb.pop(dst, s_, "r <- s.pop()");
  }
}

// --- locked vector stack --------------------------------------------------------

void LockedVectorStack::declare(System& sys) {
  support::require(capacity_ >= 1 && capacity_ <= 8,
                   "LockedVectorStack capacity must be in [1, 8]");
  regs_.reset();
  lk_ = sys.library_var("slk", 0);
  cnt_ = sys.library_var("scnt", 0);
  slots_.clear();
  for (unsigned i = 0; i < capacity_; ++i) {
    slots_.push_back(sys.library_var("slot" + std::to_string(i), 0));
  }
}

LockedVectorStack::ThreadRegs& LockedVectorStack::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("svs_loc", 0, Component::Library),
                      b.reg("svs_cnt", 0, Component::Library)};
  });
}

void LockedVectorStack::emit_lock(ThreadBuilder& tb) {
  auto& r = regs_for(tb);
  tb.do_until([&] { tb.cas(r.loc, lk_, c(0), c(1), "loc <- CAS(slk, 0, 1)"); },
              Expr{r.loc});
}

void LockedVectorStack::emit_unlock(ThreadBuilder& tb) {
  if (releasing_unlock_) {
    tb.store_rel(lk_, c(0), "slk :=R 0");
  } else {
    tb.store(lk_, c(0), "slk := 0 (BROKEN: relaxed)");
  }
}

void LockedVectorStack::emit_push(ThreadBuilder& tb, Expr value,
                                  bool /*releasing*/) {
  // The implementation synchronises through the lock regardless of the
  // client's annotation: it may synchronise *more* than a relaxed abstract
  // push, which is fine for refinement (concrete observability shrinks).
  auto& r = regs_for(tb);
  emit_lock(tb);
  tb.load(r.cnt, cnt_, "c <- scnt");
  // if c == 0 { slot0 := v } else if c == 1 { slot1 := v } ... overflow
  // clobbers the top slot (a client-visible divergence refinement would
  // catch; clients must respect the capacity bound).
  std::function<void(unsigned)> chain = [&](unsigned i) {
    if (i + 1 == slots_.size()) {
      tb.store(slots_[i], value, "slot := v");
      return;
    }
    tb.if_else(
        Expr{r.cnt} == c(static_cast<lang::Value>(i)),
        [&] { tb.store(slots_[i], value, "slot := v"); },
        [&] { chain(i + 1); });
  };
  chain(0);
  tb.store(cnt_, Expr{r.cnt} + c(1), "scnt := c + 1");
  emit_unlock(tb);
}

void LockedVectorStack::emit_pop(ThreadBuilder& tb, Reg dst,
                                 bool /*acquiring*/) {
  auto& r = regs_for(tb);
  emit_lock(tb);
  tb.load(r.cnt, cnt_, "c <- scnt");
  std::function<void(unsigned)> chain = [&](unsigned i) {
    if (i + 1 == slots_.size()) {
      tb.load(dst, slots_[i], "r <- slot");
      return;
    }
    tb.if_else(
        Expr{r.cnt} == c(static_cast<lang::Value>(i + 1)),
        [&] { tb.load(dst, slots_[i], "r <- slot"); },
        [&] { chain(i + 1); });
  };
  tb.if_else(
      Expr{r.cnt} == c(0),
      [&] { tb.assign(dst, c(kStackEmpty), "r := Empty"); },
      [&] {
        chain(0);
        tb.store(cnt_, Expr{r.cnt} - c(1), "scnt := c - 1");
      });
  emit_unlock(tb);
}

// --- instantiation / clients ------------------------------------------------------

System instantiate(const StackClientProgram& client, StackObject& object) {
  return og::instantiate_object(client, object);
}

StackClientProgram publication_client(StackClientArtifacts* artifacts) {
  return [artifacts](System& sys, StackObject& stack) {
    const auto d = sys.client_var("d", 0);
    auto t0 = sys.thread();
    t0.store(d, c(5), "d := 5");
    stack.emit_push(t0, c(1), /*releasing=*/true);

    auto t1 = sys.thread();
    auto r1 = t1.reg("r1");
    auto r2 = t1.reg("r2");
    stack.emit_pop(t1, r1, /*acquiring=*/true);
    t1.load(r2, d, "r2 <- d");

    if (artifacts != nullptr) {
      artifacts->vars = {d};
      artifacts->regs = {r1, r2};
    }
  };
}

StackClientProgram producer_consumer_client(unsigned pushes,
                                            StackClientArtifacts* artifacts) {
  support::require(pushes >= 1 && pushes <= 4,
                   "producer_consumer_client supports 1..4 pushes");
  return [pushes, artifacts](System& sys, StackObject& stack) {
    auto t0 = sys.thread();
    for (unsigned i = 0; i < pushes; ++i) {
      stack.emit_push(t0, c(static_cast<lang::Value>(i + 10)),
                      /*releasing=*/true);
    }
    auto t1 = sys.thread();
    if (artifacts != nullptr) artifacts->regs.clear();
    for (unsigned i = 0; i < pushes; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      auto r = t1.reg(name);
      stack.emit_pop(t1, r, /*acquiring=*/true);
      if (artifacts != nullptr) artifacts->regs.push_back(r);
    }
  };
}

}  // namespace rc11::stacks
