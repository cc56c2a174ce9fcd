// rc11lib/locks/lock_objects.hpp
//
// Lock objects for the contextual-refinement framework (Section 6): the
// abstract lock specification and its implementations — the sequence lock
// (§6.2), the ticket lock (§6.3) and, answering the paper's question (3)
// ("can the same abstract library specify multiple implementations?"), an
// additional CAS spinlock.  Deliberately broken variants are provided for
// negative testing: refinement checking must reject them.
//
// A LockObject fills the holes of a client program (the • of the Com grammar
// in Section 3.1).  Instantiating the same client with the abstract object
// yields C[AO], with an implementation C[CO] (Definition 7).  Implementation
// code uses Library-tagged registers so that the client projection of
// Definition 5 is identical across instantiations; the client-visible return
// value of Acquire (true) is delivered through the client's destination
// register in both cases.

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "lang/system.hpp"

namespace rc11::locks {

using lang::LocId;
using lang::Reg;
using lang::System;
using lang::ThreadBuilder;

/// Interface for anything that can fill a client's lock holes.
class LockObject {
 public:
  virtual ~LockObject() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Declares the object's library locations on the system (called once,
  /// before any thread is built).
  virtual void declare(System& sys) = 0;

  /// Emits the Acquire() hole filling for the builder's thread.  On return
  /// from the method the client register `dst` holds true (the abstract
  /// Acquire's return value).
  virtual void emit_acquire(ThreadBuilder& tb, Reg dst) = 0;

  /// Emits the Release() hole filling.
  virtual void emit_release(ThreadBuilder& tb) = 0;
};

/// The abstract lock of Section 4 / Fig. 6.
class AbstractLock final : public LockObject {
 public:
  [[nodiscard]] std::string name() const override { return "abstract-lock"; }
  void declare(System& sys) override;
  void emit_acquire(ThreadBuilder& tb, Reg dst) override;
  void emit_release(ThreadBuilder& tb) override;

 private:
  LocId l_ = 0;
};

/// The sequence lock of Section 6.2:
///   Acquire: do { do r <-A glb until even(r); loc <- CAS(glb, r, r+1)^RA }
///            until loc
///   Release: glb :=R r + 2
class SeqLock final : public LockObject {
 public:
  /// `releasing_release` exists for the broken variant: when false, the
  /// Release write is relaxed, destroying the release-acquire synchronisation
  /// the specification promises (refinement must fail).
  explicit SeqLock(bool releasing_release = true)
      : releasing_release_(releasing_release) {}

  [[nodiscard]] std::string name() const override {
    return releasing_release_ ? "seqlock" : "seqlock-broken-relaxed-release";
  }
  void declare(System& sys) override;
  void emit_acquire(ThreadBuilder& tb, Reg dst) override;
  void emit_release(ThreadBuilder& tb) override;

  [[nodiscard]] LocId glb() const { return glb_; }

 private:
  struct ThreadRegs {
    Reg r;    ///< last even value read (also used by Release)
    Reg loc;  ///< CAS success flag
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);

  LocId glb_ = 0;
  bool releasing_release_;
  lang::PerThreadRegs<ThreadRegs> regs_;
};

/// The ticket lock of Section 6.3:
///   Acquire: m_t <- FAI(nt)^RA; do s_n <-A sn until m_t = s_n
///   Release: sn :=R s_n + 1
class TicketLock final : public LockObject {
 public:
  explicit TicketLock(bool releasing_release = true)
      : releasing_release_(releasing_release) {}

  [[nodiscard]] std::string name() const override {
    return releasing_release_ ? "ticketlock" : "ticketlock-broken-relaxed-release";
  }
  void declare(System& sys) override;
  void emit_acquire(ThreadBuilder& tb, Reg dst) override;
  void emit_release(ThreadBuilder& tb) override;

 private:
  struct ThreadRegs {
    Reg my_ticket;  ///< m_t
    Reg serving;    ///< s_n
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);

  LocId nt_ = 0;  ///< next ticket
  LocId sn_ = 0;  ///< serving now
  bool releasing_release_;
  lang::PerThreadRegs<ThreadRegs> regs_;
};

/// A test-and-set spinlock (extra implementation of the same specification):
///   Acquire: do loc <- CAS(glb, 0, 1)^RA until loc
///   Release: glb :=R 0
class CasSpinLock final : public LockObject {
 public:
  [[nodiscard]] std::string name() const override { return "cas-spinlock"; }
  void declare(System& sys) override;
  void emit_acquire(ThreadBuilder& tb, Reg dst) override;
  void emit_release(ThreadBuilder& tb) override;

 private:
  struct ThreadRegs {
    Reg loc;
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);

  LocId glb_ = 0;
  lang::PerThreadRegs<ThreadRegs> regs_;
};

/// A test-and-test-and-set spinlock: spins on a relaxed-free read loop and
/// only then attempts the RA CAS (the classic contention optimisation):
///   Acquire: do { do r <-A glb until r == 0; loc <- CAS(glb, 0, 1)^RA }
///            until loc
///   Release: glb :=R 0
class TTASLock final : public LockObject {
 public:
  [[nodiscard]] std::string name() const override { return "ttas-lock"; }
  void declare(System& sys) override;
  void emit_acquire(ThreadBuilder& tb, Reg dst) override;
  void emit_release(ThreadBuilder& tb) override;

 private:
  struct ThreadRegs {
    Reg r;
    Reg loc;
  };
  ThreadRegs& regs_for(ThreadBuilder& tb);

  LocId glb_ = 0;
  lang::PerThreadRegs<ThreadRegs> regs_;
};

/// A client program parameterised by the object that fills its holes
/// (the paper's C[·]).  The callable must declare identical client locations
/// and registers regardless of the object — library state is the object's
/// own business.
using ClientProgram = std::function<void(System&, LockObject&)>;

/// Builds C[O]: a fresh System on which `client` is run with `object`
/// filling the lock holes.
[[nodiscard]] System instantiate(const ClientProgram& client, LockObject& object);

}  // namespace rc11::locks
