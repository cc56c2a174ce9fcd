// rc11lib/queues/queue_objects.hpp
//
// Contextual refinement for a third object type — the synchronising FIFO
// queue.  Mirrors stacks/stack_objects.hpp: a QueueObject fills a client's
// enqueue/dequeue holes with either the abstract queue (objects/queue.hpp)
// or a concrete implementation.  The provided implementation is a bounded,
// spinlock-protected ring buffer:
//
//   Enq(v):  lock(); t <- tl; slot_{t mod K} := v; tl := t + 1; unlock()
//   Deq():   lock(); h <- hd; t <- tl;
//            if h = t { return Empty }
//            else     { r <- slot_{h mod K}; hd := h + 1; return r }
//            unlock()
//
// As with the stack, the releasing unlock is what carries the enqR/deqA
// publication guarantee, and the relaxed-unlock variant must fail
// refinement.  Clients must not exceed the capacity (no overflow handling:
// the ring would overwrite, which refinement checking flags as divergence).

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/system.hpp"
#include "og/catalog.hpp"

namespace rc11::queues {

using lang::Expr;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;

/// Interface for anything that can fill a client's queue holes.
class QueueObject {
 public:
  virtual ~QueueObject() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  virtual void declare(System& sys) = 0;
  virtual void emit_enqueue(ThreadBuilder& tb, Expr value, bool releasing) = 0;
  virtual void emit_dequeue(ThreadBuilder& tb, Reg dst, bool acquiring) = 0;
};

/// The abstract synchronising FIFO queue.
class AbstractQueue final : public QueueObject {
 public:
  [[nodiscard]] std::string name() const override { return "abstract-queue"; }
  void declare(System& sys) override;
  void emit_enqueue(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_dequeue(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 private:
  LocId q_ = 0;
};

/// Bounded spinlock-protected ring buffer (see file comment).
class LockedRingQueue final : public QueueObject {
 public:
  explicit LockedRingQueue(unsigned capacity = 2, bool releasing_unlock = true)
      : capacity_(capacity), releasing_unlock_(releasing_unlock) {}

  [[nodiscard]] std::string name() const override {
    return releasing_unlock_ ? "locked-ring-queue"
                             : "locked-ring-queue-broken-relaxed-unlock";
  }
  void declare(System& sys) override;
  void emit_enqueue(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_dequeue(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 private:
  struct ThreadRegs {
    Reg loc;   ///< spinlock CAS flag
    Reg head;  ///< local copy of hd
    Reg tail;  ///< local copy of tl
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);
  void emit_lock(ThreadBuilder& tb);
  void emit_unlock(ThreadBuilder& tb);

  unsigned capacity_;
  bool releasing_unlock_;
  LocId lk_ = 0;
  LocId hd_ = 0;
  LocId tl_ = 0;
  std::vector<LocId> slots_;
  og::PerThreadRegs<ThreadRegs> regs_;
};

using QueueClientProgram = std::function<void(System&, QueueObject&)>;

[[nodiscard]] System instantiate(const QueueClientProgram& client,
                                 QueueObject& object);

struct QueueClientArtifacts {
  std::vector<LocId> vars;
  std::vector<Reg> regs;
};

/// Publication through the queue: t0 writes d := 5 then enqueues the message
/// (releasing); t1 dequeues once (acquiring) and reads d.
QueueClientProgram publication_client(QueueClientArtifacts* artifacts = nullptr);

/// t0 enqueues `count` distinct values; t1 dequeues the same number of times
/// (each may return Empty).  FIFO: successful dequeues appear in enqueue
/// order.
QueueClientProgram pipeline_client(unsigned count,
                                   QueueClientArtifacts* artifacts = nullptr);

}  // namespace rc11::queues
