#include "containers/container_objects.hpp"

#include <utility>

#include "memsem/types.hpp"
#include "support/diagnostics.hpp"

namespace rc11::containers {

using lang::c;
using memsem::Component;
using memsem::kQueueEmpty;
using memsem::kStackEmpty;

// --- abstract container ----------------------------------------------------------

std::string AbstractContainer::name() const {
  return stack() ? "abstract-stack" : "abstract-queue";
}

void AbstractContainer::declare(System& sys) {
  loc_ = stack() ? sys.library_stack("s") : sys.library_queue("q");
}

void AbstractContainer::emit_insert(ThreadBuilder& tb, Expr value,
                                    bool releasing) {
  if (releasing) {
    tb.push_rel(loc_, std::move(value));
  } else {
    tb.push(loc_, std::move(value));
  }
}

void AbstractContainer::emit_remove(ThreadBuilder& tb, Reg dst,
                                    bool acquiring) {
  if (acquiring) {
    tb.pop_acq(dst, loc_);
  } else {
    tb.pop(dst, loc_);
  }
}

// --- locked containers -------------------------------------------------------------

LockedContainer::LockedContainer(Names names, unsigned capacity,
                                 bool releasing_unlock)
    : names_(std::move(names)),
      capacity_(capacity),
      releasing_unlock_(releasing_unlock) {}

std::string LockedContainer::name() const {
  std::string out = names_.object;
  if (!releasing_unlock_) out += "-broken-relaxed-unlock";
  return out;
}

void LockedContainer::declare(System& sys) {
  support::require(capacity_ >= 1 && capacity_ <= 8, names_.object,
                   " capacity must be in [1, 8]");
  regs_.reset();
  lock_ = sys.library_var(names_.lock, 0);
  counters_.clear();
  for (const char* counter : names_.counters) {
    counters_.push_back(sys.library_var(counter, 0));
  }
  slots_.clear();
  for (unsigned i = 0; i < capacity_; ++i) {
    std::string slot = names_.slot;
    slot += std::to_string(i);
    slots_.push_back(sys.library_var(slot, 0));
  }
}

const std::vector<Reg>& LockedContainer::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [this](ThreadBuilder& b) {
    std::vector<Reg> regs;
    for (const char* reg : names_.regs) {
      regs.push_back(b.reg(reg, 0, Component::Library));
    }
    return regs;
  });
}

void LockedContainer::emit_lock(ThreadBuilder& tb) {
  const Reg flag = regs_for(tb).front();
  tb.do_until([&] { tb.cas(flag, lock_, c(0), c(1)); }, Expr{flag});
}

void LockedContainer::emit_unlock(ThreadBuilder& tb) {
  if (releasing_unlock_) {
    tb.store_rel(lock_, c(0));
  } else {
    tb.store(lock_, c(0));
  }
}

void LockedContainer::emit_slot(ThreadBuilder& tb,
                                const std::function<Expr(lang::Value)>& at,
                                const std::function<void(LocId)>& body,
                                std::size_t i) {
  if (i + 1 == slots_.size()) {
    body(slots_[i]);
    return;
  }
  tb.if_else(
      at(static_cast<lang::Value>(i)), [&] { body(slots_[i]); },
      [&] { emit_slot(tb, at, body, i + 1); });
}

// The implementations synchronise through the lock regardless of the
// client's annotation: they may synchronise *more* than a relaxed abstract
// insert or remove, which is fine for refinement (concrete observability
// shrinks).

LockedVectorStack::LockedVectorStack(unsigned capacity, bool releasing_unlock)
    : LockedContainer({"locked-vector-stack", "slk", {"scnt"}, "slot",
                       {"svs_loc", "svs_cnt"}},
                      capacity, releasing_unlock) {}

void LockedVectorStack::emit_insert(ThreadBuilder& tb, Expr value,
                                    bool /*releasing*/) {
  const Reg cnt = regs_for(tb)[1];
  emit_lock(tb);
  tb.load(cnt, counter(0));
  // Overflow clobbers the top slot.
  emit_slot(tb, [&](lang::Value i) { return Expr{cnt} == c(i); },
            [&](LocId slot) { tb.store(slot, value); });
  tb.store(counter(0), Expr{cnt} + c(1));
  emit_unlock(tb);
}

void LockedVectorStack::emit_remove(ThreadBuilder& tb, Reg dst,
                                    bool /*acquiring*/) {
  const Reg cnt = regs_for(tb)[1];
  emit_lock(tb);
  tb.load(cnt, counter(0));
  tb.if_else(
      Expr{cnt} == c(0),
      [&] { tb.assign(dst, c(kStackEmpty)); },
      [&] {
        emit_slot(tb, [&](lang::Value i) { return Expr{cnt} == c(i + 1); },
                  [&](LocId slot) { tb.load(dst, slot); });
        tb.store(counter(0), Expr{cnt} - c(1));
      });
  emit_unlock(tb);
}

LockedRingQueue::LockedRingQueue(unsigned capacity, bool releasing_unlock)
    : LockedContainer({"locked-ring-queue", "qlk", {"qhd", "qtl"}, "qslot",
                       {"lrq_loc", "lrq_hd", "lrq_tl"}},
                      capacity, releasing_unlock) {}

void LockedRingQueue::emit_insert(ThreadBuilder& tb, Expr value,
                                  bool /*releasing*/) {
  const Reg tail = regs_for(tb)[2];
  emit_lock(tb);
  tb.load(tail, counter(1));
  emit_slot(tb,
            [&](lang::Value i) { return Expr{tail} % c(capacity()) == c(i); },
            [&](LocId slot) { tb.store(slot, value); });
  tb.store(counter(1), Expr{tail} + c(1));
  emit_unlock(tb);
}

void LockedRingQueue::emit_remove(ThreadBuilder& tb, Reg dst,
                                  bool /*acquiring*/) {
  const auto& regs = regs_for(tb);
  const Reg head = regs[1];
  const Reg tail = regs[2];
  emit_lock(tb);
  tb.load(head, counter(0));
  tb.load(tail, counter(1));
  tb.if_else(
      Expr{head} == Expr{tail},
      [&] { tb.assign(dst, c(kQueueEmpty)); },
      [&] {
        emit_slot(
            tb,
            [&](lang::Value i) { return Expr{head} % c(capacity()) == c(i); },
            [&](LocId slot) { tb.load(dst, slot); });
        tb.store(counter(0), Expr{head} + c(1));
      });
  emit_unlock(tb);
}

// --- instantiation / clients ------------------------------------------------------

System instantiate(const ClientProgram& client, ContainerObject& object) {
  return lang::instantiate_object(client, object);
}

ClientProgram publication_client(ClientArtifacts* artifacts) {
  return [artifacts](System& sys, ContainerObject& container) {
    const auto d = sys.client_var("d", 0);
    auto t0 = sys.thread();
    t0.store(d, c(5));
    container.emit_insert(t0, c(1), /*releasing=*/true);

    auto t1 = sys.thread();
    auto r1 = t1.reg("r1");
    auto r2 = t1.reg("r2");
    container.emit_remove(t1, r1, /*acquiring=*/true);
    t1.load(r2, d);

    if (artifacts != nullptr) {
      artifacts->vars = {d};
      artifacts->regs = {r1, r2};
    }
  };
}

ClientProgram producer_consumer_client(unsigned inserts,
                                       ClientArtifacts* artifacts) {
  support::require(inserts >= 1 && inserts <= 4,
                   "producer_consumer_client supports 1..4 inserts");
  return [inserts, artifacts](System& sys, ContainerObject& container) {
    auto t0 = sys.thread();
    for (unsigned i = 0; i < inserts; ++i) {
      container.emit_insert(t0, c(static_cast<lang::Value>(i + 10)),
                            /*releasing=*/true);
    }
    auto t1 = sys.thread();
    if (artifacts != nullptr) artifacts->regs.clear();
    for (unsigned i = 0; i < inserts; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      auto r = t1.reg(name);
      container.emit_remove(t1, r, /*acquiring=*/true);
      if (artifacts != nullptr) artifacts->regs.push_back(r);
    }
  };
}

}  // namespace rc11::containers
