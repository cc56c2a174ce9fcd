#include "queues/queue_objects.hpp"

#include "memsem/types.hpp"
#include "support/diagnostics.hpp"

namespace rc11::queues {

using lang::c;
using memsem::Component;
using memsem::kQueueEmpty;

// --- abstract queue -----------------------------------------------------------

void AbstractQueue::declare(System& sys) { q_ = sys.library_queue("q"); }

void AbstractQueue::emit_enqueue(ThreadBuilder& tb, Expr value, bool releasing) {
  if (releasing) {
    tb.enqueue_rel(q_, std::move(value), "q.enqR");
  } else {
    tb.enqueue(q_, std::move(value), "q.enq");
  }
}

void AbstractQueue::emit_dequeue(ThreadBuilder& tb, Reg dst, bool acquiring) {
  if (acquiring) {
    tb.dequeue_acq(dst, q_, "r <- q.deqA()");
  } else {
    tb.dequeue(dst, q_, "r <- q.deq()");
  }
}

// --- locked ring queue -----------------------------------------------------------

void LockedRingQueue::declare(System& sys) {
  support::require(capacity_ >= 1 && capacity_ <= 8,
                   "LockedRingQueue capacity must be in [1, 8]");
  regs_.reset();
  lk_ = sys.library_var("qlk", 0);
  hd_ = sys.library_var("qhd", 0);
  tl_ = sys.library_var("qtl", 0);
  slots_.clear();
  for (unsigned i = 0; i < capacity_; ++i) {
    slots_.push_back(sys.library_var("qslot" + std::to_string(i), 0));
  }
}

LockedRingQueue::ThreadRegs& LockedRingQueue::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("lrq_loc", 0, Component::Library),
                      b.reg("lrq_hd", 0, Component::Library),
                      b.reg("lrq_tl", 0, Component::Library)};
  });
}

void LockedRingQueue::emit_lock(ThreadBuilder& tb) {
  auto& r = regs_for(tb);
  tb.do_until([&] { tb.cas(r.loc, lk_, c(0), c(1), "loc <- CAS(qlk, 0, 1)"); },
              Expr{r.loc});
}

void LockedRingQueue::emit_unlock(ThreadBuilder& tb) {
  if (releasing_unlock_) {
    tb.store_rel(lk_, c(0), "qlk :=R 0");
  } else {
    tb.store(lk_, c(0), "qlk := 0 (BROKEN: relaxed)");
  }
}

void LockedRingQueue::emit_enqueue(ThreadBuilder& tb, Expr value,
                                   bool /*releasing*/) {
  auto& r = regs_for(tb);
  emit_lock(tb);
  tb.load(r.tail, tl_, "t <- qtl");
  // slot_{t mod K} := v, as an if-chain over the residue.
  const auto cap = static_cast<lang::Value>(slots_.size());
  std::function<void(unsigned)> chain = [&](unsigned i) {
    if (i + 1 == slots_.size()) {
      tb.store(slots_[i], value, "slot := v");
      return;
    }
    tb.if_else(
        Expr{r.tail} % c(cap) == c(static_cast<lang::Value>(i)),
        [&] { tb.store(slots_[i], value, "slot := v"); },
        [&] { chain(i + 1); });
  };
  chain(0);
  tb.store(tl_, Expr{r.tail} + c(1), "qtl := t + 1");
  emit_unlock(tb);
}

void LockedRingQueue::emit_dequeue(ThreadBuilder& tb, Reg dst,
                                   bool /*acquiring*/) {
  auto& r = regs_for(tb);
  emit_lock(tb);
  tb.load(r.head, hd_, "h <- qhd");
  tb.load(r.tail, tl_, "t <- qtl");
  const auto cap = static_cast<lang::Value>(slots_.size());
  std::function<void(unsigned)> chain = [&](unsigned i) {
    if (i + 1 == slots_.size()) {
      tb.load(dst, slots_[i], "r <- slot");
      return;
    }
    tb.if_else(
        Expr{r.head} % c(cap) == c(static_cast<lang::Value>(i)),
        [&] { tb.load(dst, slots_[i], "r <- slot"); },
        [&] { chain(i + 1); });
  };
  tb.if_else(
      Expr{r.head} == Expr{r.tail},
      [&] { tb.assign(dst, c(kQueueEmpty), "r := Empty"); },
      [&] {
        chain(0);
        tb.store(hd_, Expr{r.head} + c(1), "qhd := h + 1");
      });
  emit_unlock(tb);
}

// --- instantiation / clients ------------------------------------------------------

System instantiate(const QueueClientProgram& client, QueueObject& object) {
  return og::instantiate_object(client, object);
}

QueueClientProgram publication_client(QueueClientArtifacts* artifacts) {
  return [artifacts](System& sys, QueueObject& queue) {
    const auto d = sys.client_var("d", 0);
    auto t0 = sys.thread();
    t0.store(d, c(5), "d := 5");
    queue.emit_enqueue(t0, c(1), /*releasing=*/true);

    auto t1 = sys.thread();
    auto r1 = t1.reg("r1");
    auto r2 = t1.reg("r2");
    queue.emit_dequeue(t1, r1, /*acquiring=*/true);
    t1.load(r2, d, "r2 <- d");

    if (artifacts != nullptr) {
      artifacts->vars = {d};
      artifacts->regs = {r1, r2};
    }
  };
}

QueueClientProgram pipeline_client(unsigned count,
                                   QueueClientArtifacts* artifacts) {
  support::require(count >= 1 && count <= 4,
                   "pipeline_client supports 1..4 elements");
  return [count, artifacts](System& sys, QueueObject& queue) {
    auto t0 = sys.thread();
    for (unsigned i = 0; i < count; ++i) {
      queue.emit_enqueue(t0, c(static_cast<lang::Value>(i + 10)),
                         /*releasing=*/true);
    }
    auto t1 = sys.thread();
    if (artifacts != nullptr) artifacts->regs.clear();
    for (unsigned i = 0; i < count; ++i) {
      std::string name = "d";
      name += std::to_string(i);
      auto r = t1.reg(name);
      queue.emit_dequeue(t1, r, /*acquiring=*/true);
      if (artifacts != nullptr) artifacts->regs.push_back(r);
    }
  };
}

}  // namespace rc11::queues
