// rc11lib/containers/container_objects.hpp
//
// Contextual refinement for the synchronising containers, the stack and the
// FIFO queue.  The paper works out its refinement theory on the lock and
// notes that "the theory itself is generic and can be applied to concurrent
// objects in general" and that investigating "implementations of other
// concurrent data types ... within this operational framework" is future
// work; this module is that exercise.
//
// A ContainerObject fills a client's insert/remove holes (push/pop on a
// stack, enq/deq on a queue) with either the abstract container semantics
// (objects/container.hpp) or a concrete implementation.  The two provided
// implementations are bounded and protected by a CAS spinlock:
//
//   vector stack, count c = scnt:
//     Push(v):  lock(); c <- scnt; slot_c := v; scnt := c + 1; unlock()
//     Pop():    lock(); c <- scnt;
//               if c = 0 { return Empty }
//               else     { r <- slot_{c-1}; scnt := c - 1; return r }
//               unlock()
//   ring queue, head h = qhd and tail t = qtl:
//     Enq(v):   lock(); t <- qtl; slot_{t mod K} := v; qtl := t + 1; unlock()
//     Deq():    lock(); h <- qhd; t <- qtl;
//               if h = t { return Empty }
//               else     { r <- slot_{h mod K}; qhd := h + 1; return r }
//               unlock()
//
// The releasing unlock is the source of the publication guarantee: an
// acquiring remove of a releasing insert must transfer the inserter's client
// views, and here it does because the remover's lock-acquire CAS
// synchronises with the inserter's lock release, whose modification view is
// at least as recent as the insert's.  The broken variants unlock with a
// relaxed write and must fail refinement.
//
// Capacity is a compile-time bound (slots are scalar library variables; the
// language deliberately has no arrays).  Clients must not exceed it: the
// stack's overflow clobbers its top slot and the ring overwrites its oldest
// element, which refinement checking flags as a client-visible divergence.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/system.hpp"

namespace rc11::containers {

using lang::Expr;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;
using memsem::LocKind;

/// Interface for anything that can fill a client's container holes.
class ContainerObject {
 public:
  virtual ~ContainerObject() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  virtual void declare(System& sys) = 0;
  /// Emits insert(value), a push or an enqueue; releasing selects push^R,
  /// enq^R.
  virtual void emit_insert(ThreadBuilder& tb, Expr value, bool releasing) = 0;
  /// Emits dst <- remove(), a pop or a dequeue; acquiring selects pop^A,
  /// deq^A.  dst receives the removed value or Empty.
  virtual void emit_remove(ThreadBuilder& tb, Reg dst, bool acquiring) = 0;
};

/// The abstract synchronising stack of Figures 1-3 (LocKind::Stack) or the
/// abstract FIFO queue (LocKind::Queue).
class AbstractContainer final : public ContainerObject {
 public:
  explicit AbstractContainer(LocKind kind) : kind_(kind) {}

  [[nodiscard]] std::string name() const override;
  void declare(System& sys) override;
  void emit_insert(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_remove(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 private:
  [[nodiscard]] bool stack() const { return kind_ == LocKind::Stack; }

  LocKind kind_;
  LocId loc_ = 0;
};

/// What both bounded implementations are made of (see the file comment): a
/// CAS spinlock, the counters that index the slots, `capacity` slots, and
/// per-thread scratch registers.  They are declared in that order: the lock,
/// the counters, the slots; the first scratch register holds the lock's CAS
/// flag.
class LockedContainer : public ContainerObject {
 public:
  [[nodiscard]] std::string name() const final;
  void declare(System& sys) final;

 protected:
  /// How an implementation names what it declares.
  struct Names {
    const char* object;                 ///< name() of the releasing variant
    const char* lock;                   ///< the spinlock variable
    std::vector<const char*> counters;  ///< declared after the lock
    const char* slot;                   ///< slot i is named slot + i
    std::vector<const char*> regs;      ///< the scratch registers
  };

  LockedContainer(Names names, unsigned capacity, bool releasing_unlock);

  /// The thread's scratch registers, declared on its first method call.
  const std::vector<Reg>& regs_for(ThreadBuilder& tb);
  [[nodiscard]] LocId counter(std::size_t i) const { return counters_.at(i); }
  [[nodiscard]] lang::Value capacity() const { return capacity_; }
  void emit_lock(ThreadBuilder& tb);
  void emit_unlock(ThreadBuilder& tb);
  /// Emits `if at(0) { body(slot 0) } else if at(1) { body(slot 1) } ...
  /// else { body(last slot) }`: how a counter indexes the scalar slots.
  void emit_slot(ThreadBuilder& tb, const std::function<Expr(lang::Value)>& at,
                 const std::function<void(LocId)>& body, std::size_t i = 0);

 private:
  Names names_;
  unsigned capacity_;
  bool releasing_unlock_;
  LocId lock_ = 0;
  std::vector<LocId> counters_;
  std::vector<LocId> slots_;
  lang::PerThreadRegs<std::vector<Reg>> regs_;
};

/// Bounded spinlock-protected vector stack (see the file comment).
class LockedVectorStack final : public LockedContainer {
 public:
  explicit LockedVectorStack(unsigned capacity = 2,
                             bool releasing_unlock = true);

  void emit_insert(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_remove(ThreadBuilder& tb, Reg dst, bool acquiring) override;
};

/// Bounded spinlock-protected ring-buffer queue (see the file comment).
class LockedRingQueue final : public LockedContainer {
 public:
  explicit LockedRingQueue(unsigned capacity = 2, bool releasing_unlock = true);

  void emit_insert(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_remove(ThreadBuilder& tb, Reg dst, bool acquiring) override;
};

/// A client program over container holes (the analogue of
/// locks::ClientProgram).
using ClientProgram = std::function<void(System&, ContainerObject&)>;

/// Builds C[O] for a container object.
[[nodiscard]] System instantiate(const ClientProgram& client,
                                 ContainerObject& object);

using lang::ClientArtifacts;

/// The Fig. 2-shaped publication client: t0 writes d := 5 then inserts the
/// message (releasing); t1 removes it (acquiring, once — it may see Empty)
/// and then reads d.
ClientProgram publication_client(ClientArtifacts* artifacts = nullptr);

/// A two-thread producer/consumer: t0 inserts `inserts` distinct values; t1
/// removes the same number of times (each remove may return Empty).  On a
/// stack a successful remove returns the newest value, on a queue the
/// oldest.
ClientProgram producer_consumer_client(unsigned inserts,
                                       ClientArtifacts* artifacts = nullptr);

}  // namespace rc11::containers
