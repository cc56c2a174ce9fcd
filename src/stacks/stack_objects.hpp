// rc11lib/stacks/stack_objects.hpp
//
// Contextual refinement for a second object type — the synchronising stack.
// The paper works out its refinement theory on the lock and notes that "the
// theory itself is generic and can be applied to concurrent objects in
// general" and that investigating "implementations of other concurrent data
// types ... within this operational framework" is future work; this module
// is that exercise.
//
// A StackObject fills a client's push/pop holes with either the abstract
// stack semantics (objects/stack.hpp) or a concrete implementation.  The
// provided implementation is a bounded, spinlock-protected vector stack:
//
//   Push(v):  lock(); c <- cnt; slot_c := v; cnt := c + 1; unlock()
//   Pop():    lock(); c <- cnt;
//             if c = 0 { return Empty }
//             else     { r <- slot_{c-1}; cnt := c - 1; return r }
//             unlock()
//
// where lock()/unlock() is a CAS spinlock whose releasing unlock is the
// source of the publication guarantee: an acquiring pop of a releasing push
// must transfer the pusher's client views, and here it does because the
// popper's lock-acquire CAS synchronises with the pusher's lock release,
// whose modification view is at least as recent as the push's.  The broken
// variant unlocks with a relaxed write and must fail refinement.
//
// Capacity is a compile-time bound (slots are scalar library variables; the
// language deliberately has no arrays).  Clients must not exceed it; the
// implementation asserts this via a poison slot write that would show up as
// a client-visible divergence in refinement checking.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/system.hpp"
#include "og/catalog.hpp"

namespace rc11::stacks {

using lang::Expr;
using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;

/// Interface for anything that can fill a client's stack holes.
class StackObject {
 public:
  virtual ~StackObject() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  virtual void declare(System& sys) = 0;
  /// Emits push(value); releasing selects push^R.
  virtual void emit_push(ThreadBuilder& tb, Expr value, bool releasing) = 0;
  /// Emits dst <- pop(); acquiring selects pop^A.  dst receives the popped
  /// value or memsem::kStackEmpty.
  virtual void emit_pop(ThreadBuilder& tb, Reg dst, bool acquiring) = 0;
};

/// The abstract synchronising stack of Figures 1-3.
class AbstractStack final : public StackObject {
 public:
  [[nodiscard]] std::string name() const override { return "abstract-stack"; }
  void declare(System& sys) override;
  void emit_push(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_pop(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 private:
  LocId s_ = 0;
};

/// Bounded spinlock-protected vector stack (see file comment).
class LockedVectorStack final : public StackObject {
 public:
  explicit LockedVectorStack(unsigned capacity = 2,
                             bool releasing_unlock = true)
      : capacity_(capacity), releasing_unlock_(releasing_unlock) {}

  [[nodiscard]] std::string name() const override {
    return releasing_unlock_ ? "locked-vector-stack"
                             : "locked-vector-stack-broken-relaxed-unlock";
  }
  void declare(System& sys) override;
  void emit_push(ThreadBuilder& tb, Expr value, bool releasing) override;
  void emit_pop(ThreadBuilder& tb, Reg dst, bool acquiring) override;

 private:
  struct ThreadRegs {
    Reg loc;  ///< spinlock CAS flag
    Reg cnt;  ///< local copy of the element count
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);
  void emit_lock(ThreadBuilder& tb);
  void emit_unlock(ThreadBuilder& tb);

  unsigned capacity_;
  bool releasing_unlock_;
  LocId lk_ = 0;
  LocId cnt_ = 0;
  std::vector<LocId> slots_;
  og::PerThreadRegs<ThreadRegs> regs_;
};

/// A client program over stack holes (the analogue of locks::ClientProgram).
using StackClientProgram = std::function<void(System&, StackObject&)>;

/// Builds C[O] for a stack object.
[[nodiscard]] System instantiate(const StackClientProgram& client,
                                 StackObject& object);

/// Handles to a client's observable artifacts.
struct StackClientArtifacts {
  std::vector<LocId> vars;
  std::vector<Reg> regs;
};

/// The Fig. 2-shaped publication client: t0 writes d := 5 then pushes the
/// message (releasing); t1 pops (acquiring, once — it may see Empty) and
/// then reads d.
StackClientProgram publication_client(StackClientArtifacts* artifacts = nullptr);

/// A two-thread producer/consumer: t0 pushes `pushes` distinct values;
/// t1 pops the same number of times (each pop may return Empty).
StackClientProgram producer_consumer_client(
    unsigned pushes, StackClientArtifacts* artifacts = nullptr);

}  // namespace rc11::stacks
