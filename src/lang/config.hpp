// rc11lib/lang/config.hpp
//
// Runtime configurations and the combined transition relation of Section 3.2:
// the program semantics of Fig. 4 (per-thread control and local state)
// constrained by the memory semantics of Fig. 5 (for plain accesses) and the
// abstract object semantics of Section 4 (for method calls).
//
// A configuration is the tuple (P, ρ, γ, β) of the paper: per-thread program
// counters into the compiled CFG, per-thread register files, and the combined
// weak-memory state.  `successors` enumerates every transition of every
// thread, including all memory nondeterminism (the choice of write a read
// reads from, the placement choice for a write, and both CAS outcomes), which
// is exactly the branching that the paper's ==> relation exhibits.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lang/system.hpp"
#include "memsem/state.hpp"

namespace rc11::lang {

/// A configuration (P, ρ, γ, β).
struct Config {
  std::vector<std::uint32_t> pc;          ///< per-thread program counter
  std::vector<std::vector<Value>> regs;   ///< per-thread register files (ρ)
  memsem::MemState mem;                   ///< combined γ and β

  [[nodiscard]] bool thread_done(const System& sys, ThreadId t) const {
    return pc[t] >= sys.code(t).size();
  }

  [[nodiscard]] bool all_done(const System& sys) const {
    for (ThreadId t = 0; t < sys.num_threads(); ++t) {
      if (!thread_done(sys, t)) return false;
    }
    return true;
  }

  /// Canonical encoding (pcs, registers, memory); two configurations are
  /// semantically identical iff their encodings are equal.
  [[nodiscard]] std::vector<std::uint64_t> encode() const;

  /// Appends the encoding read through `view` to `out`: the pcs and
  /// register files in slot order, then MemState::encode under the same
  /// view.  The default view is the canonical encoding; the symmetry and rf
  /// quotient keys pass a thread relabelling or a keep mask (see
  /// memsem::EncodeView), so every state key has this one writer.  Callers
  /// on the hot path keep one scratch buffer and `clear()` it between
  /// states; encode() above is a convenience wrapper.
  void encode_into(std::vector<std::uint64_t>& out,
                   const memsem::EncodeView& view = {}) const;

  [[nodiscard]] std::string to_string(const System& sys) const;
};

/// Independence metadata for one step, consumed by the engine's dependence
/// relation (engine/transition_system.hpp).  A pure function of the executed
/// *instruction*: every step generated from the same instruction carries the
/// same footprint (conservative for CAS, whose failure steps only read — the
/// dependence relation may only over-approximate, never under-approximate).
struct StepMeta {
  memsem::AccessKind access = memsem::AccessKind::Local;
  /// Carries a rel/acq flag: non-relaxed plain access, RMW (always RA), or
  /// abstract object method call (object methods synchronise, Section 4).
  bool sync = false;
  LocId loc = 0;  ///< accessed location; meaningful iff access != Local
};

/// The footprint of every step generated by `in` (see StepMeta).
[[nodiscard]] StepMeta access_footprint(const Instr& in);

/// One enabled transition and its result.
struct Step {
  ThreadId thread = 0;
  std::string label;  ///< populated only when requested (diagnostics cost)
  Config after;
  StepMeta meta;  ///< independence metadata of the generating instruction
};

/// A reusable pool of successor Steps.  clear() resets the logical size but
/// keeps every Step object (and, transitively, the heap capacity of its
/// Config's arrays: pc, registers and MemState's flat op, mview, mo and tview
/// arrays) alive, so refilling the buffer for the next base state
/// copy-assigns into existing storage and allocates nothing once a slot has
/// held a state of the same size.  Callers must keep that capacity: encode,
/// key and intern a successor in its slot, and move `after` out only for a
/// state that is new (it enters the frontier).  Only such a slot is rebuilt
/// from scratch on its next reuse; a duplicate costs no allocation.
class StepBuffer {
 public:
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] std::span<Step> steps() noexcept { return {steps_.data(), size_}; }
  [[nodiscard]] std::span<const Step> steps() const noexcept {
    return {steps_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Next pooled Step slot with `after` set to a copy of `proto`.  Reused
  /// slots copy-assign into existing heap capacity; a growing buffer
  /// copy-constructs (Config has no default state — MemState needs the
  /// location table).  The label may hold stale contents from a previous
  /// state; successor generation overwrites it.
  Step& push(const Config& proto) {
    if (size_ == steps_.size()) {
      steps_.push_back(Step{0, {}, proto, {}});
    } else {
      steps_[size_].after = proto;
    }
    return steps_[size_++];
  }

  /// Scratch for MemState observability queries during generation (so
  /// Obs(t, x) does not allocate per instruction).
  [[nodiscard]] std::vector<memsem::OpId>& obs_scratch() noexcept { return obs_; }

 private:
  std::vector<Step> steps_;
  std::vector<memsem::OpId> obs_;
  std::size_t size_ = 0;
};

/// The initial configuration Γ_Init (locations initialised, registers at
/// their declared initial values, all pcs at 0).
[[nodiscard]] Config initial_config(const System& sys);

/// All transitions enabled in `cfg`, across every thread.  `want_labels`
/// fills Step::label with a human-readable description (slower; meant for
/// counterexample reporting).
[[nodiscard]] std::vector<Step> successors(const System& sys, const Config& cfg,
                                           bool want_labels = false);

/// All transitions of a single thread (used by the Owicki-Gries interference
/// checker and the refinement game to attribute steps).
[[nodiscard]] std::vector<Step> thread_successors(const System& sys,
                                                  const Config& cfg, ThreadId t,
                                                  bool want_labels = false);

/// Hot-path forms: clear `out` and fill it with the enabled transitions,
/// reusing the buffer's pooled Steps.  The vector-returning overloads above
/// are wrappers kept for tests and cold callers.
void successors(const System& sys, const Config& cfg, StepBuffer& out,
                bool want_labels = false);
void thread_successors(const System& sys, const Config& cfg, ThreadId t,
                       StepBuffer& out, bool want_labels = false);

}  // namespace rc11::lang
