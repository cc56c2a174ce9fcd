#include "engine/transition_system.hpp"

namespace rc11::engine {

using lang::IKind;
using lang::Instr;
using memsem::Component;

TransitionSystem::TransitionSystem(const System& sys, AmplePolicy policy)
    : sys_(&sys), policy_(policy) {}

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
    default:
      // Memory steps are never ample.  A relaxed access private to its
      // thread would be independent of every other-thread step, but over
      // the whole corpus that rule fired only on disjoint_na and saved four
      // states there, so it was not worth its footprint masks.
      return false;
  }
}

std::optional<ThreadId> TransitionSystem::ample_thread(
    const Config& cfg) const {
  // Lowest eligible thread id: deterministic, so the reduced graph is the
  // same for every worker count and trace mode.
  for (ThreadId t = 0; t < sys_->num_threads(); ++t) {
    if (cfg.thread_done(*sys_, t)) continue;
    if (ample_eligible(cfg, t)) return t;
  }
  return std::nullopt;
}

}  // namespace rc11::engine
