// Combined transition relation: Fig. 4's program steps constrained by
// Fig. 5's memory transitions and Section 4's abstract object rules.

#include <sstream>

#include "lang/config.hpp"
#include "objects/container.hpp"
#include "objects/lock.hpp"
#include "support/diagnostics.hpp"

namespace rc11::lang {

using memsem::MemState;
using memsem::OpId;

std::vector<std::uint64_t> Config::encode() const {
  std::vector<std::uint64_t> out;
  encode_into(out);
  return out;
}

void Config::encode_into(std::vector<std::uint64_t>& out,
                         const memsem::EncodeView& view) const {
  const auto num_threads = static_cast<ThreadId>(pc.size());
  std::size_t words = num_threads;
  for (const auto& file : regs) words += 1 + file.size();
  const std::size_t base = out.size();
  out.resize(base + words);
  std::uint64_t* w = out.data() + base;
  for (ThreadId s = 0; s < num_threads; ++s) *w++ = pc[view.thread_at(s)];
  for (ThreadId s = 0; s < num_threads; ++s) {
    const auto& file = regs[view.thread_at(s)];
    *w++ = file.size();
    for (const auto v : file) *w++ = static_cast<std::uint64_t>(v);
  }
  mem.encode(out, view);
}

std::string Config::to_string(const System& sys) const {
  std::ostringstream os;
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    os << "t" << t << " pc=" << pc[t];
    if (thread_done(sys, t)) os << " (done)";
    for (RegId r = 0; r < regs[t].size(); ++r) {
      os << " " << sys.reg_name(t, r) << "=" << regs[t][r];
    }
    os << "\n";
  }
  os << mem.to_string();
  return os.str();
}

StepMeta access_footprint(const Instr& in) {
  StepMeta m;
  switch (in.kind) {
    case IKind::Assign:
    case IKind::Branch:
    case IKind::Jump:
      return m;  // Local: no location, no flags
    case IKind::Load:
      m.access = memsem::AccessKind::Read;
      m.sync = memsem::synchronises(in.order);
      break;
    case IKind::Store:
      m.access = memsem::AccessKind::Write;
      m.sync = memsem::synchronises(in.order);
      break;
    case IKind::Cas:
    case IKind::Fai:
      // Conservative: CAS failure steps only read, but the footprint is per
      // instruction and RMWs are always RA.
      m.access = memsem::AccessKind::Update;
      m.sync = true;
      break;
    case IKind::LockAcquire:
    case IKind::LockRelease:
    case IKind::Push:
    case IKind::Pop:
      m.access = memsem::AccessKind::Object;
      m.sync = true;
      break;
  }
  m.loc = in.loc;
  return m;
}

Config initial_config(const System& sys) {
  Config cfg{std::vector<std::uint32_t>(sys.num_threads(), 0),
             {},
             MemState{sys.locations(), sys.num_threads(), sys.options()}};
  cfg.regs.resize(sys.num_threads());
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    cfg.regs[t].resize(sys.num_regs(t));
    for (RegId r = 0; r < cfg.regs[t].size(); ++r) {
      cfg.regs[t][r] = sys.reg_initial(t, r);
    }
  }
  return cfg;
}

namespace {

/// A step label: `t<thread>: `, the instruction, ` [object]` after a method
/// call, then the outcome suffix (docs/FORMAT.md).
std::string describe(const System& sys, ThreadId t, const Instr& in,
                     memsem::AccessKind access, const char* suffix) {
  std::ostringstream os;
  os << "t" << t << ": ";
  describe_instr(os, sys, t, in);
  if (access == memsem::AccessKind::Object) {
    os << " [" << sys.locations().name(in.loc) << "]";
  }
  os << suffix;
  return os.str();
}

/// Appends a successor built from `cfg` by `mutate`, advancing t's pc.  The
/// pooled Step slot is copy-assigned, so the Config's arrays (pc, registers
/// and MemState's flat op, mview, mo and tview arrays) reuse whatever heap
/// capacity the slot already holds from earlier states: no allocation at all
/// unless the slot's previous state was moved out or was smaller.
template <typename Mutate>
void add_step(StepBuffer& out, const System& sys, const Config& cfg,
              ThreadId t, const Instr& in, bool want_labels,
              const char* label_suffix, Mutate&& mutate) {
  Step& step = out.push(cfg);
  step.thread = t;
  step.label.clear();
  step.meta = access_footprint(in);
  step.after.pc[t] += 1;
  // The pooled slot may still hold races from the state it previously held
  // (and the parent's copy carries the parent step's); clear so that after
  // mutate() the config reports exactly the races this step introduced.
  step.after.mem.race_begin_step();
  mutate(step.after);
  if (want_labels) {
    step.label = describe(sys, t, in, step.meta.access, label_suffix);
  }
}

/// thread_successors without the initial clear(), so successors() can chain
/// all threads into one buffer.
void append_thread_successors(const System& sys, const Config& cfg, ThreadId t,
                              StepBuffer& out, bool want_labels) {
  if (cfg.thread_done(sys, t)) return;
  const Instr& in = sys.code(t)[cfg.pc[t]];
  const auto& regs = cfg.regs[t];
  auto& obs = out.obs_scratch();

  switch (in.kind) {
    case IKind::Assign: {
      add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
        next.regs[t][in.dst] = in.e1.eval(regs);
      });
      break;
    }
    case IKind::Load: {
      cfg.mem.observable_into(t, in.loc, obs);
      for (const OpId w : obs) {
        add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
          next.regs[t][in.dst] =
              next.mem.read(t, in.loc, w, in.order, cfg.pc[t]);
        });
      }
      break;
    }
    case IKind::Store: {
      const Value v = in.e1.eval(regs);
      cfg.mem.observable_uncovered_into(t, in.loc, obs);
      for (const OpId w : obs) {
        add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
          next.mem.write(t, in.loc, v, in.order, w, cfg.pc[t]);
        });
      }
      break;
    }
    case IKind::Cas: {
      const Value expected = in.e2.eval(regs);
      const Value desired = in.e3.eval(regs);
      // Success: an UPDATE transition reading an observable uncovered write
      // with the expected value.
      cfg.mem.observable_uncovered_into(t, in.loc, obs);
      for (const OpId w : obs) {
        if (cfg.mem.read_value_of(w) != expected) continue;
        add_step(out, sys, cfg, t, in, want_labels, " (success)",
                 [&](Config& next) {
                   next.mem.update(t, in.loc, w, desired, cfg.pc[t]);
                   next.regs[t][in.dst] = 1;
                 });
      }
      // Failure: a relaxed READ of any observable write with a different
      // value (the paper's rd(x, v'), v' != u rule).
      cfg.mem.observable_into(t, in.loc, obs);
      for (const OpId w : obs) {
        if (cfg.mem.read_value_of(w) == expected) continue;
        add_step(out, sys, cfg, t, in, want_labels, " (fail)",
                 [&](Config& next) {
                   next.mem.read(t, in.loc, w, memsem::MemOrder::Relaxed,
                                 cfg.pc[t]);
                   next.regs[t][in.dst] = 0;
                 });
      }
      break;
    }
    case IKind::Fai: {
      cfg.mem.observable_uncovered_into(t, in.loc, obs);
      for (const OpId w : obs) {
        const Value old = cfg.mem.read_value_of(w);
        add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
          next.mem.update(t, in.loc, w, old + 1, cfg.pc[t]);
          next.regs[t][in.dst] = old;
        });
      }
      break;
    }
    case IKind::LockAcquire: {
      if (objects::lock_acquire_enabled(cfg.mem, in.loc)) {
        add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
          const auto op = objects::lock_acquire(next.mem, t, in.loc);
          if (in.has_dst) {
            // Acquire returns true; with capture_version the acquired
            // version is recorded instead (the paper's l.Acquire(v)).
            next.regs[t][in.dst] =
                in.capture_version ? next.mem.op(op).value : 1;
          }
        });
      }
      // else: blocked — no transition (abstract acquire is blocking).
      break;
    }
    case IKind::LockRelease: {
      if (objects::lock_release_enabled(cfg.mem, t, in.loc)) {
        add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
          objects::lock_release(next.mem, t, in.loc);
        });
      }
      // Releasing a lock one does not hold is a client bug; the thread
      // blocks, and the explorer reports the resulting deadlock.
      break;
    }
    case IKind::Push: {
      const Value v = in.e1.eval(regs);
      add_step(out, sys, cfg, t, in, want_labels, "", [&](Config& next) {
        objects::container_insert(next.mem, t, in.loc, v,
                                  in.order == memsem::MemOrder::Release);
      });
      break;
    }
    case IKind::Pop: {
      const bool empty = objects::container_empty(cfg.mem, in.loc);
      add_step(out, sys, cfg, t, in, want_labels, empty ? " (empty)" : "",
               [&](Config& next) {
                 next.regs[t][in.dst] = objects::container_remove(
                     next.mem, t, in.loc,
                     in.order == memsem::MemOrder::Acquire);
               });
      break;
    }
    case IKind::Branch: {
      const bool taken = in.e1.eval(regs) != 0;
      add_step(out, sys, cfg, t, in, want_labels, taken ? " (taken)" : "",
               [&](Config& next) {
                 if (taken) next.pc[t] = in.target;
               });
      break;
    }
    case IKind::Jump: {
      add_step(out, sys, cfg, t, in, want_labels, "",
               [&](Config& next) { next.pc[t] = in.target; });
      break;
    }
  }
}

/// Drains a StepBuffer into a plain vector (the cold, compatibility API).
std::vector<Step> drain(StepBuffer& buf) {
  std::vector<Step> out;
  out.reserve(buf.size());
  for (Step& step : buf.steps()) out.push_back(std::move(step));
  return out;
}

}  // namespace

void thread_successors(const System& sys, const Config& cfg, ThreadId t,
                       StepBuffer& out, bool want_labels) {
  out.clear();
  append_thread_successors(sys, cfg, t, out, want_labels);
}

void successors(const System& sys, const Config& cfg, StepBuffer& out,
                bool want_labels) {
  out.clear();
  for (ThreadId t = 0; t < sys.num_threads(); ++t) {
    append_thread_successors(sys, cfg, t, out, want_labels);
  }
}

std::vector<Step> thread_successors(const System& sys, const Config& cfg,
                                    ThreadId t, bool want_labels) {
  StepBuffer buf;
  thread_successors(sys, cfg, t, buf, want_labels);
  return drain(buf);
}

std::vector<Step> successors(const System& sys, const Config& cfg,
                             bool want_labels) {
  StepBuffer buf;
  successors(sys, cfg, buf, want_labels);
  return drain(buf);
}

}  // namespace rc11::lang
