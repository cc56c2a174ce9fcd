#include "lang/system.hpp"

#include <sstream>

#include "support/diagnostics.hpp"

namespace rc11::lang {

using memsem::LocKind;

// ---------------------------------------------------------------------------
// System
// ---------------------------------------------------------------------------

LocId System::client_var(std::string_view name, Value initial) {
  return locs_.add_var(name, Component::Client, initial);
}

LocId System::library_var(std::string_view name, Value initial) {
  return locs_.add_var(name, Component::Library, initial);
}

LocId System::client_lock(std::string_view name) {
  return locs_.add_object(name, Component::Client, LocKind::Lock);
}

LocId System::library_lock(std::string_view name) {
  return locs_.add_object(name, Component::Library, LocKind::Lock);
}

LocId System::client_stack(std::string_view name) {
  return locs_.add_object(name, Component::Client, LocKind::Stack);
}

LocId System::library_stack(std::string_view name) {
  return locs_.add_object(name, Component::Library, LocKind::Stack);
}

LocId System::client_queue(std::string_view name) {
  return locs_.add_object(name, Component::Client, LocKind::Queue);
}

LocId System::library_queue(std::string_view name) {
  return locs_.add_object(name, Component::Library, LocKind::Queue);
}

ThreadBuilder System::thread() {
  const auto t = static_cast<ThreadId>(code_.size());
  code_.emplace_back();
  regs_.emplace_back();
  return ThreadBuilder{*this, t};
}

void describe_instr(std::ostream& os, const System& sys, ThreadId t,
                    const Instr& in) {
  const auto& locs = sys.locations();
  const auto reg = [&](RegId r) { return sys.reg_name(t, r); };
  const auto queue = [&] { return locs.kind(in.loc) == LocKind::Queue; };
  // The order annotation of a read (`<-A`, `<-NA`) or a write (`:=R`, `:=NA`).
  const char* order = in.order == MemOrder::Acquire     ? "A"
                      : in.order == MemOrder::Release   ? "R"
                      : in.order == MemOrder::NonAtomic ? "NA"
                                                        : "";
  switch (in.kind) {
    case IKind::Assign:
      os << reg(in.dst) << " := " << in.e1.to_string();
      break;
    case IKind::Load:
      os << reg(in.dst) << " <-" << order << " " << locs.name(in.loc);
      break;
    case IKind::Store:
      os << locs.name(in.loc) << " :=" << order << " " << in.e1.to_string();
      break;
    case IKind::Cas:
      os << reg(in.dst) << " <- CAS(" << locs.name(in.loc) << ", "
         << in.e2.to_string() << ", " << in.e3.to_string() << ")";
      break;
    case IKind::Fai:
      os << reg(in.dst) << " <- FAI(" << locs.name(in.loc) << ")";
      break;
    case IKind::LockAcquire:
      if (in.has_dst) os << reg(in.dst) << " <- ";
      os << locs.name(in.loc)
         << (in.capture_version ? ".acquire_version()" : ".acquire()");
      break;
    case IKind::LockRelease:
      os << locs.name(in.loc) << ".release()";
      break;
    case IKind::Push:
      // The inserted value is not rendered (ROADMAP item 6.5).
      os << locs.name(in.loc) << (queue() ? ".enq" : ".push") << order;
      break;
    case IKind::Pop:
      os << reg(in.dst) << " <-" << order << " " << locs.name(in.loc)
         << (queue() ? ".deq()" : ".pop()");
      break;
    case IKind::Branch:
      os << "if " << in.e1.to_string() << " goto " << in.target;
      break;
    case IKind::Jump:
      os << "goto " << in.target;
      break;
  }
}

std::string System::disassemble() const {
  std::ostringstream os;
  for (ThreadId t = 0; t < num_threads(); ++t) {
    os << "thread " << t << ":\n";
    const auto& code = code_[t];
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      os << "  " << pc << ": ";
      describe_instr(os, *this, t, code[pc]);
      os << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// ThreadBuilder
// ---------------------------------------------------------------------------

Reg ThreadBuilder::reg(std::string_view name, Value initial, Component comp) {
  auto& regs = sys_->regs_[thread_];
  for (const auto& existing : regs) {
    support::require(existing.name != name, "duplicate register ", name,
                     " in thread ", thread_);
  }
  regs.push_back({std::string{name}, comp, initial});
  return Reg{thread_, static_cast<RegId>(regs.size() - 1)};
}

std::uint32_t ThreadBuilder::here() const {
  return static_cast<std::uint32_t>(sys_->code_[thread_].size());
}

std::uint32_t ThreadBuilder::emit(Instr instr) {
  const auto pc = here();
  sys_->code_[thread_].push_back(std::move(instr));
  return pc;
}

void ThreadBuilder::patch_target(std::uint32_t pc, std::uint32_t target) {
  sys_->code_[thread_].at(pc).target = target;
}

namespace {

void check_reg_thread(const Reg& r, ThreadId t) {
  RC11_REQUIRE(r.thread == t, "register used in a foreign thread");
}

}  // namespace

ThreadBuilder& ThreadBuilder::assign(Reg r, Expr e) {
  check_reg_thread(r, thread_);
  Instr in;
  in.kind = IKind::Assign;
  in.dst = r.id;
  in.has_dst = true;
  in.e1 = std::move(e);
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::load(Reg r, LocId x) {
  check_reg_thread(r, thread_);
  Instr in;
  in.kind = IKind::Load;
  in.dst = r.id;
  in.has_dst = true;
  in.loc = x;
  in.order = MemOrder::Relaxed;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::load_acq(Reg r, LocId x) {
  load(r, x);
  sys_->code_[thread_].back().order = MemOrder::Acquire;
  return *this;
}

ThreadBuilder& ThreadBuilder::load_na(Reg r, LocId x) {
  load(r, x);
  sys_->code_[thread_].back().order = MemOrder::NonAtomic;
  return *this;
}

ThreadBuilder& ThreadBuilder::store(LocId x, Expr e) {
  Instr in;
  in.kind = IKind::Store;
  in.loc = x;
  in.e1 = std::move(e);
  in.order = MemOrder::Relaxed;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::store_rel(LocId x, Expr e) {
  store(x, std::move(e));
  sys_->code_[thread_].back().order = MemOrder::Release;
  return *this;
}

ThreadBuilder& ThreadBuilder::store_na(LocId x, Expr e) {
  store(x, std::move(e));
  sys_->code_[thread_].back().order = MemOrder::NonAtomic;
  return *this;
}

ThreadBuilder& ThreadBuilder::cas(Reg r, LocId x, Expr expected, Expr desired) {
  check_reg_thread(r, thread_);
  Instr in;
  in.kind = IKind::Cas;
  in.dst = r.id;
  in.has_dst = true;
  in.loc = x;
  in.e2 = std::move(expected);
  in.e3 = std::move(desired);
  in.order = MemOrder::AcqRel;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::fai(Reg r, LocId x) {
  check_reg_thread(r, thread_);
  Instr in;
  in.kind = IKind::Fai;
  in.dst = r.id;
  in.has_dst = true;
  in.loc = x;
  in.order = MemOrder::AcqRel;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::acquire(LocId lock, std::optional<Reg> r) {
  Instr in;
  in.kind = IKind::LockAcquire;
  in.loc = lock;
  if (r) {
    check_reg_thread(*r, thread_);
    in.dst = r->id;
    in.has_dst = true;
  }
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::acquire_version(LocId lock, Reg r) {
  acquire(lock, r);
  sys_->code_[thread_].back().capture_version = true;
  return *this;
}

ThreadBuilder& ThreadBuilder::release(LocId lock) {
  Instr in;
  in.kind = IKind::LockRelease;
  in.loc = lock;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::push(LocId container, Expr e) {
  Instr in;
  in.kind = IKind::Push;
  in.loc = container;
  in.e1 = std::move(e);
  in.order = MemOrder::Relaxed;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::push_rel(LocId container, Expr e) {
  push(container, std::move(e));
  sys_->code_[thread_].back().order = MemOrder::Release;
  return *this;
}

ThreadBuilder& ThreadBuilder::pop(Reg r, LocId container) {
  check_reg_thread(r, thread_);
  Instr in;
  in.kind = IKind::Pop;
  in.dst = r.id;
  in.has_dst = true;
  in.loc = container;
  in.order = MemOrder::Relaxed;
  emit(std::move(in));
  return *this;
}

ThreadBuilder& ThreadBuilder::pop_acq(Reg r, LocId container) {
  pop(r, container);
  sys_->code_[thread_].back().order = MemOrder::Acquire;
  return *this;
}

ThreadBuilder& ThreadBuilder::if_else(Expr cond,
                                      const std::function<void()>& then_body,
                                      const std::function<void()>& else_body) {
  // if !cond goto ELSE; <then>; goto END; ELSE: <else>; END:
  Instr br;
  br.kind = IKind::Branch;
  br.e1 = !std::move(cond);
  const auto to_else = emit(std::move(br));
  then_body();
  if (else_body) {
    Instr jp;
    jp.kind = IKind::Jump;
    const auto to_end = emit(std::move(jp));
    patch_target(to_else, here());
    else_body();
    patch_target(to_end, here());
  } else {
    patch_target(to_else, here());
  }
  return *this;
}

ThreadBuilder& ThreadBuilder::while_(Expr cond, const std::function<void()>& body) {
  // HEAD: if !cond goto END; <body>; goto HEAD; END:
  const auto head = here();
  Instr br;
  br.kind = IKind::Branch;
  br.e1 = !std::move(cond);
  const auto to_end = emit(std::move(br));
  body();
  Instr jp;
  jp.kind = IKind::Jump;
  jp.target = head;
  emit(std::move(jp));
  patch_target(to_end, here());
  return *this;
}

ThreadBuilder& ThreadBuilder::do_until(const std::function<void()>& body, Expr cond) {
  // HEAD: <body>; if !cond goto HEAD
  const auto head = here();
  body();
  Instr br;
  br.kind = IKind::Branch;
  br.e1 = !std::move(cond);
  br.target = head;
  emit(std::move(br));
  return *this;
}

}  // namespace rc11::lang
