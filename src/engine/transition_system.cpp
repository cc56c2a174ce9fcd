#include "engine/transition_system.hpp"

namespace rc11::engine {

using lang::IKind;
using lang::Instr;
using memsem::AccessKind;
using memsem::Component;
using memsem::MemOrder;

namespace {

constexpr std::uint64_t bit(ThreadId t) noexcept { return 1ULL << t; }

}  // namespace

TransitionSystem::TransitionSystem(const System& sys, AmplePolicy policy)
    : sys_(&sys), policy_(policy) {
  masks_valid_ = sys.num_threads() <= 64;
  if (!masks_valid_) return;
  loc_writers_.assign(sys.locations().size(), 0);
  loc_accessors_.assign(sys.locations().size(), 0);
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (const Instr& in : sys.code(t)) {
      const auto meta = lang::access_footprint(in);
      if (meta.access == AccessKind::Local) continue;
      loc_accessors_[meta.loc] |= bit(t);
      if (memsem::writes_location(meta.access)) loc_writers_[meta.loc] |= bit(t);
      if (meta.sync) sync_threads_ |= bit(t);
    }
  }
}

Config TransitionSystem::initial() const { return lang::initial_config(*sys_); }

void TransitionSystem::successors_into(const Config& cfg, StepBuffer& out,
                                       bool want_labels) const {
  lang::successors(*sys_, cfg, out, want_labels);
}

void TransitionSystem::thread_successors_into(const Config& cfg, ThreadId t,
                                              StepBuffer& out,
                                              bool want_labels) const {
  lang::thread_successors(*sys_, cfg, t, out, want_labels);
}

bool TransitionSystem::ample_eligible(const Config& cfg, ThreadId t) const {
  const System& sys = *sys_;
  const Instr& in = sys.code(t)[cfg.pc[t]];
  switch (in.kind) {
    case IKind::Assign:
      // Local and deterministic; pc always advances.  Under ClientInvisible
      // the destination must be a library register (client registers are
      // part of the client projection).
      return policy_ == AmplePolicy::FinalState ||
             sys.reg_component(t, in.dst) == Component::Library;
    case IKind::Jump:
      return in.target > cfg.pc[t];  // proviso: pc must strictly increase
    case IKind::Branch: {
      const std::uint32_t next =
          in.e1.eval(cfg.regs[t]) != 0 ? in.target : cfg.pc[t] + 1;
      return next > cfg.pc[t];
    }
    case IKind::Load:
    case IKind::Store: {
      // Private relaxed/non-atomic access: independent of every other-thread
      // step iff no other thread conflicts on the location (writes it for a
      // load; touches it at all for a store) and no other thread carries sync
      // flags anywhere (clause (2) of the dependence relation).  A private
      // access also never races (races need a conflicting other-thread
      // access), so deferring it preserves race reports.
      if (!masks_valid_ || (in.order != MemOrder::Relaxed &&
                            in.order != MemOrder::NonAtomic)) {
        return false;
      }
      if (policy_ == AmplePolicy::ClientInvisible &&
          sys.locations().component(in.loc) != Component::Library) {
        return false;
      }
      const std::uint64_t others = ~bit(t);
      const std::uint64_t conflict = in.kind == IKind::Load
                                         ? loc_writers_[in.loc]
                                         : loc_accessors_[in.loc];
      return (conflict & others) == 0 && (sync_threads_ & others) == 0;
    }
    default:
      // RMWs and object method calls always synchronise; never ample.
      return false;
  }
}

std::optional<ThreadId> TransitionSystem::ample_thread(
    const Config& cfg) const {
  // Lowest eligible thread id: deterministic, so the reduced graph is the
  // same for every worker count, search strategy and trace mode.
  for (ThreadId t = 0; t < sys_->num_threads(); ++t) {
    if (cfg.thread_done(*sys_, t)) continue;
    if (ample_eligible(cfg, t)) return t;
  }
  return std::nullopt;
}

}  // namespace rc11::engine
