#include "locks/lock_objects.hpp"

#include "memsem/types.hpp"
#include "support/diagnostics.hpp"

namespace rc11::locks {

using lang::c;
using lang::Expr;
using memsem::Component;

// --- abstract lock -----------------------------------------------------------

void AbstractLock::declare(System& sys) { l_ = sys.library_lock("l"); }

void AbstractLock::emit_acquire(ThreadBuilder& tb, Reg dst) {
  tb.acquire(l_, dst);
}

void AbstractLock::emit_release(ThreadBuilder& tb) {
  tb.release(l_);
}

// --- sequence lock -----------------------------------------------------------

void SeqLock::declare(System& sys) {
  regs_.reset();  // a LockObject may be reused across instantiations
  glb_ = sys.library_var("glb", 0);
}

SeqLock::ThreadRegs& SeqLock::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("slk_r", 0, Component::Library),
                      b.reg("slk_loc", 0, Component::Library)};
  });
}

void SeqLock::emit_acquire(ThreadBuilder& tb, Reg dst) {
  auto& r = regs_for(tb);
  tb.do_until(
      [&] {
        tb.do_until([&] { tb.load_acq(r.r, glb_); },
                    lang::is_even(Expr{r.r}));
        tb.cas(r.loc, glb_, Expr{r.r}, Expr{r.r} + c(1));
      },
      Expr{r.loc});
  // Acquire() returns true — delivered through the client register, which is
  // the refinement-visible rval of Section 4.
  tb.assign(dst, c(1));
}

void SeqLock::emit_release(ThreadBuilder& tb) {
  auto& r = regs_for(tb);
  if (releasing_release_) {
    tb.store_rel(glb_, Expr{r.r} + c(2));
  } else {
    tb.store(glb_, Expr{r.r} + c(2));
  }
}

// --- ticket lock ---------------------------------------------------------------

void TicketLock::declare(System& sys) {
  regs_.reset();
  nt_ = sys.library_var("nt", 0);
  sn_ = sys.library_var("sn", 0);
}

TicketLock::ThreadRegs& TicketLock::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("tkt_mt", 0, Component::Library),
                      b.reg("tkt_sn", 0, Component::Library)};
  });
}

void TicketLock::emit_acquire(ThreadBuilder& tb, Reg dst) {
  auto& r = regs_for(tb);
  tb.fai(r.my_ticket, nt_);
  tb.do_until([&] { tb.load_acq(r.serving, sn_); },
              Expr{r.my_ticket} == Expr{r.serving});
  tb.assign(dst, c(1));
}

void TicketLock::emit_release(ThreadBuilder& tb) {
  auto& r = regs_for(tb);
  if (releasing_release_) {
    tb.store_rel(sn_, Expr{r.serving} + c(1));
  } else {
    tb.store(sn_, Expr{r.serving} + c(1));
  }
}

// --- CAS spinlock ---------------------------------------------------------------

void CasSpinLock::declare(System& sys) {
  regs_.reset();
  glb_ = sys.library_var("glb", 0);
}

CasSpinLock::ThreadRegs& CasSpinLock::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("tas_loc", 0, Component::Library)};
  });
}

void CasSpinLock::emit_acquire(ThreadBuilder& tb, Reg dst) {
  auto& r = regs_for(tb);
  tb.do_until([&] { tb.cas(r.loc, glb_, c(0), c(1)); }, Expr{r.loc});
  tb.assign(dst, c(1));
}

void CasSpinLock::emit_release(ThreadBuilder& tb) {
  tb.store_rel(glb_, c(0));
}

// --- TTAS lock --------------------------------------------------------------------

void TTASLock::declare(System& sys) {
  regs_.reset();
  glb_ = sys.library_var("glb", 0);
}

TTASLock::ThreadRegs& TTASLock::regs_for(ThreadBuilder& tb) {
  return regs_.get(tb, [](ThreadBuilder& b) {
    return ThreadRegs{b.reg("ttas_r", 0, Component::Library),
                      b.reg("ttas_loc", 0, Component::Library)};
  });
}

void TTASLock::emit_acquire(ThreadBuilder& tb, Reg dst) {
  auto& r = regs_for(tb);
  tb.do_until(
      [&] {
        tb.do_until([&] { tb.load_acq(r.r, glb_); }, Expr{r.r} == c(0));
        tb.cas(r.loc, glb_, c(0), c(1));
      },
      Expr{r.loc});
  tb.assign(dst, c(1));
}

void TTASLock::emit_release(ThreadBuilder& tb) {
  tb.store_rel(glb_, c(0));
}

// --- instantiation ---------------------------------------------------------------

System instantiate(const ClientProgram& client, LockObject& object) {
  return lang::instantiate_object(client, object);
}

}  // namespace rc11::locks
