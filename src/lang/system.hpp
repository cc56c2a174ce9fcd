// rc11lib/lang/system.hpp
//
// Programs and systems.  A System bundles the location table (client and
// library variables and objects, Section 3.1's GVar_C / GVar_L / Obj), the
// per-thread register files (LVar, with a component tag used by the
// refinement framework's client projection), the per-thread code, and the
// semantics options.
//
// Structured programs (if / while / do-until of the Com grammar) are
// compiled by the ThreadBuilder into a flat CFG of atomic instructions
// indexed by a program counter.  This matches how the paper's proof outlines
// are written (assertions attached to numbered program points, cf. Figs. 3
// and 7) and gives configurations a trivially hashable control component.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/expr.hpp"
#include "memsem/location.hpp"
#include "memsem/state.hpp"
#include "memsem/types.hpp"

namespace rc11::lang {

using memsem::Component;
using memsem::LocId;
using memsem::MemOrder;
using memsem::SemanticsOptions;
using memsem::ThreadId;
using memsem::Value;

/// Atomic instruction kinds (the ACom productions of Section 3.1, plus the
/// control-flow jumps produced by compiling compound statements).
enum class IKind : std::uint8_t {
  Assign,       ///< r := Exp_L
  Load,         ///< r <-[A] x
  Store,        ///< x :=[R] Exp_L
  Cas,          ///< r <- CAS(x, u, v)^RA — success is an update, failure a read
  Fai,          ///< r <- FAI(x)^RA — fetch-and-increment update
  LockAcquire,  ///< abstract lock method call (blocking; returns true)
  LockRelease,  ///< abstract lock method call
  Push,         ///< container insert[^R]: stack push, queue enqueue
  Pop,          ///< r <- container remove[^A]: stack pop, queue dequeue
                ///< (Empty when empty)
  Branch,       ///< if e1 != 0 goto target
  Jump,         ///< goto target
};

/// One atomic instruction.
struct Instr {
  IKind kind{};
  RegId dst = 0;
  bool has_dst = false;
  LocId loc = 0;
  Expr e1;  ///< Assign source / Store value / Branch condition / Push value
  Expr e2;  ///< CAS expected value u
  Expr e3;  ///< CAS desired value v
  MemOrder order = MemOrder::Relaxed;
  std::uint32_t target = 0;  ///< Branch / Jump destination pc
  /// LockAcquire only: store the acquired *version* (the paper's l.Acquire(v)
  /// ghost observation, cf. the rl register of Fig. 7) into dst instead of
  /// the method's return value true.
  bool capture_version = false;
};

/// Register handle; implicitly convertible to an expression.
struct Reg {
  ThreadId thread = 0;
  RegId id = 0;
  // NOLINTNEXTLINE(google-explicit-constructor): intentional sugar
  operator Expr() const { return Expr::reg(id); }
};

/// Shorthand for integer literals in builder code.
[[nodiscard]] inline Expr c(Value v) { return Expr::constant(v); }

class System;

/// Writes one instruction to `os` in `.rc11` syntax, with register names
/// resolved through the owning thread: the one source of every disassembly
/// line, step label, counterexample step and DOT edge.
void describe_instr(std::ostream& os, const System& sys, ThreadId t,
                    const Instr& in);

/// Appends instructions to one thread of a System.  Obtained from
/// System::thread(); multiple builders for the same thread may not be
/// interleaved with structured-statement bodies in flight.
class ThreadBuilder {
 public:
  ThreadBuilder(System& sys, ThreadId thread) : sys_(&sys), thread_(thread) {}

  [[nodiscard]] ThreadId id() const noexcept { return thread_; }

  /// Declares a local register, optionally with an initial value (the
  /// paper's Init may initialise each local at most once; uninitialised
  /// registers start at 0).  The component tag matters only for refinement:
  /// registers created by inlined library implementations are Library and
  /// excluded from the client projection.
  Reg reg(std::string_view name, Value initial = 0,
          Component comp = Component::Client);

  // --- atomic statements (return *this for chaining) ---
  ThreadBuilder& assign(Reg r, Expr e);
  ThreadBuilder& load(Reg r, LocId x);        ///< r <- x
  ThreadBuilder& load_acq(Reg r, LocId x);    ///< r <-A x
  ThreadBuilder& load_na(Reg r, LocId x);     ///< r <-NA x
  ThreadBuilder& store(LocId x, Expr e);      ///< x := e
  ThreadBuilder& store_rel(LocId x, Expr e);  ///< x :=R e
  ThreadBuilder& store_na(LocId x, Expr e);   ///< x :=NA e
  /// r <- CAS(x,u,v)^RA
  ThreadBuilder& cas(Reg r, LocId x, Expr expected, Expr desired);
  ThreadBuilder& fai(Reg r, LocId x);  ///< r <- FAI(x)^RA
  ThreadBuilder& acquire(LocId lock, std::optional<Reg> r = std::nullopt);
  /// Acquire that records the acquired lock *version* in r (the paper's
  /// l.Acquire(v) notation; used by proof outlines such as Fig. 7's rl).
  ThreadBuilder& acquire_version(LocId lock, Reg r);
  ThreadBuilder& release(LocId lock);
  /// Container methods on a stack or a queue location: the location's kind
  /// decides at execution time whether a pop takes the newest or the oldest
  /// element (objects/container.hpp).
  ThreadBuilder& push(LocId container, Expr e);
  ThreadBuilder& push_rel(LocId container, Expr e);
  ThreadBuilder& pop(Reg r, LocId container);
  ThreadBuilder& pop_acq(Reg r, LocId container);

  // --- compound statements (Com grammar) ---
  /// if cond then then_body() else else_body().
  ThreadBuilder& if_else(Expr cond, const std::function<void()>& then_body,
                         const std::function<void()>& else_body = {});
  /// while cond do body().
  ThreadBuilder& while_(Expr cond, const std::function<void()>& body);
  /// do body() until cond.
  ThreadBuilder& do_until(const std::function<void()>& body, Expr cond);

  // --- low-level CFG access (used by implementation splicing) ---
  [[nodiscard]] std::uint32_t here() const;       ///< next pc to be emitted
  std::uint32_t emit(Instr instr);                ///< returns its pc
  void patch_target(std::uint32_t pc, std::uint32_t target);

 private:
  System* sys_;
  ThreadId thread_;
};

/// A complete client-library system: locations, threads, code.
class System {
 public:
  explicit System(SemanticsOptions options = {}) : options_(options) {}

  // --- locations ---
  LocId client_var(std::string_view name, Value initial);
  LocId library_var(std::string_view name, Value initial);
  LocId client_lock(std::string_view name);
  LocId library_lock(std::string_view name);
  LocId client_stack(std::string_view name);
  LocId library_stack(std::string_view name);
  LocId client_queue(std::string_view name);
  LocId library_queue(std::string_view name);

  /// Creates a new thread and returns a builder for it.
  ThreadBuilder thread();

  // --- introspection ---
  [[nodiscard]] const memsem::LocationTable& locations() const { return locs_; }
  [[nodiscard]] ThreadId num_threads() const {
    return static_cast<ThreadId>(code_.size());
  }
  [[nodiscard]] const std::vector<Instr>& code(ThreadId t) const {
    return code_.at(t);
  }
  [[nodiscard]] std::size_t num_regs(ThreadId t) const {
    return regs_.at(t).size();
  }
  [[nodiscard]] Component reg_component(ThreadId t, RegId r) const {
    return regs_.at(t).at(r).component;
  }
  [[nodiscard]] const std::string& reg_name(ThreadId t, RegId r) const {
    return regs_.at(t).at(r).name;
  }
  [[nodiscard]] Value reg_initial(ThreadId t, RegId r) const {
    return regs_.at(t).at(r).initial;
  }
  [[nodiscard]] const SemanticsOptions& options() const { return options_; }
  void set_options(const SemanticsOptions& o) { options_ = o; }

  /// Pretty-prints thread code with pcs (for docs and debugging).
  [[nodiscard]] std::string disassemble() const;

 private:
  friend class ThreadBuilder;
  struct RegInfo {
    std::string name;
    Component component;
    Value initial;
  };

  memsem::LocationTable locs_;
  std::vector<std::vector<RegInfo>> regs_;
  std::vector<std::vector<Instr>> code_;
  SemanticsOptions options_;
};

// --- object-registration helpers ---------------------------------------------
//
// Every object implementation (locks, containers) fills a client's holes the
// same way: it registers its scratch registers the first time a thread calls
// one of its methods, and C[O] is built by declaring the object's locations
// before running the client.

/// Per-thread lazy register registration.  `Regs` is the implementation's
/// bundle of Library-tagged scratch registers; `get` returns the bundle for
/// the builder's thread, calling `make(tb)` exactly once per thread to
/// declare the registers on first use.  `reset` forgets all bundles — object
/// instances are reusable across instantiations, and registers belong to the
/// System being built, not to the object.
template <typename Regs>
class PerThreadRegs {
 public:
  void reset() { regs_.clear(); }

  template <typename Make>
  Regs& get(ThreadBuilder& tb, Make&& make) {
    const auto t = tb.id();
    auto it = regs_.find(t);
    if (it == regs_.end()) {
      it = regs_.emplace(t, make(tb)).first;
    }
    return it->second;
  }

 private:
  std::unordered_map<ThreadId, Regs> regs_;
};

/// Builds C[O]: a fresh System on which `client` is run with `object`
/// filling the holes.  The object declares its library locations first,
/// before any thread exists.
template <typename Object, typename Client>
[[nodiscard]] System instantiate_object(const Client& client, Object& object) {
  System sys;
  object.declare(sys);
  client(sys, object);
  return sys;
}

/// Handles to the client-visible artifacts of a client program, for outcome
/// inspection (identical across instantiations of the same client).
struct ClientArtifacts {
  std::vector<LocId> vars;
  std::vector<Reg> regs;
};

}  // namespace rc11::lang
