#include "assertions/assertions.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "objects/container.hpp"
#include "support/diagnostics.hpp"

namespace rc11::assertions {

using memsem::MemState;
using memsem::OpId;

struct Assertion::Impl {
  std::string name;
  Fn fn;
  ViewFootprint footprint;
};

namespace {

/// Sorted union of two sorted, duplicate-free vectors.
template <typename T>
std::vector<T> sorted_union(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Union of two read sets (combinators may evaluate either operand).
ViewFootprint merge_footprints(const ViewFootprint& a, const ViewFootprint& b) {
  ViewFootprint out;
  out.everything = a.everything || b.everything;
  if (out.everything) return out;
  out.entries = a.entries;
  for (const auto& e : b.entries) {
    if (std::find(out.entries.begin(), out.entries.end(), e) ==
        out.entries.end()) {
      out.entries.push_back(e);
    }
  }
  out.threads = sorted_union(a.threads, b.threads);
  out.locations = sorted_union(a.locations, b.locations);
  return out;
}

/// Reads thread t's viewfront entry for l (and l's history).
ViewFootprint view_of(ThreadId t, LocId l) {
  return ViewFootprint{false, {{t, l}}, {t}, {l}};
}

/// Reads only the histories of `locs`.
ViewFootprint locations_of(std::vector<LocId> locs) {
  std::sort(locs.begin(), locs.end());
  locs.erase(std::unique(locs.begin(), locs.end()), locs.end());
  return ViewFootprint{false, {}, {}, std::move(locs)};
}

/// Reads only thread t's pc and registers.
ViewFootprint thread_of(ThreadId t) {
  return ViewFootprint{false, {}, {t}, {}};
}

}  // namespace

bool ViewFootprint::meets(ThreadId u, std::optional<LocId> written) const {
  if (everything) return true;
  if (std::binary_search(threads.begin(), threads.end(), u)) return true;
  return written &&
         std::binary_search(locations.begin(), locations.end(), *written);
}

Assertion::Assertion()
    : impl_(std::make_shared<Impl>(
          Impl{"true", [](const System&, const Config&) { return true; },
               ViewFootprint{}})) {}

Assertion::Assertion(std::string name, Fn fn)
    : Assertion(std::move(name), std::move(fn),
                ViewFootprint{/*everything=*/true, {}, {}, {}}) {}

Assertion::Assertion(std::string name, Fn fn, ViewFootprint footprint)
    : impl_(std::make_shared<Impl>(
          Impl{std::move(name), std::move(fn), std::move(footprint)})) {}

bool Assertion::eval(const System& sys, const Config& cfg) const {
  return impl_->fn(sys, cfg);
}

const std::string& Assertion::name() const { return impl_->name; }

const ViewFootprint& Assertion::footprint() const { return impl_->footprint; }

Assertion Assertion::always() { return Assertion{}; }

Assertion operator&&(Assertion a, Assertion b) {
  const std::string name = "(" + a.name() + " && " + b.name() + ")";
  ViewFootprint fp = merge_footprints(a.footprint(), b.footprint());
  return Assertion{name,
                   [a, b](const System& sys, const Config& cfg) {
                     return a.eval(sys, cfg) && b.eval(sys, cfg);
                   },
                   std::move(fp)};
}

Assertion operator||(Assertion a, Assertion b) {
  const std::string name = "(" + a.name() + " || " + b.name() + ")";
  ViewFootprint fp = merge_footprints(a.footprint(), b.footprint());
  return Assertion{name,
                   [a, b](const System& sys, const Config& cfg) {
                     return a.eval(sys, cfg) || b.eval(sys, cfg);
                   },
                   std::move(fp)};
}

Assertion operator!(Assertion a) {
  ViewFootprint fp = a.footprint();
  return Assertion{"!" + a.name(),
                   [a](const System& sys, const Config& cfg) {
                     return !a.eval(sys, cfg);
                   },
                   std::move(fp)};
}

Assertion implies(Assertion a, Assertion b) {
  const std::string name = "(" + a.name() + " ==> " + b.name() + ")";
  ViewFootprint fp = merge_footprints(a.footprint(), b.footprint());
  return Assertion{name,
                   [a, b](const System& sys, const Config& cfg) {
                     return !a.eval(sys, cfg) || b.eval(sys, cfg);
                   },
                   std::move(fp)};
}

Assertion pred(std::string name, Assertion::Fn fn) {
  return Assertion{std::move(name), std::move(fn)};
}

namespace {

/// dview(mview_w, ops, y) = v of Section 5.1: w's modification view's entry
/// for y is the last write to y, and that write wrote v.
bool dview_is(const MemState& mem, OpId w, LocId y, Value v) {
  const OpId last = mem.last_op(y);
  return mem.mview(w)[y] == last && mem.op(last).value == v;
}

bool is_var_write(const memsem::Op& op) {
  return op.kind == memsem::OpKind::Init || op.kind == memsem::OpKind::Write ||
         op.kind == memsem::OpKind::WriteRel ||
         op.kind == memsem::OpKind::Update;
}

std::string fmt(ThreadId t) { return std::to_string(t); }

}  // namespace

// --- variables ---------------------------------------------------------------

Assertion possible_obs(ThreadId t, LocId x, Value v) {
  const std::string name =
      support::concat("<loc", x, "=", v, ">_", fmt(t));
  return Assertion{name,
                   [t, x, v](const System&, const Config& cfg) {
                     for (const OpId w : cfg.mem.observable(t, x)) {
                       if (cfg.mem.op(w).value == v) return true;
                     }
                     return false;
                   },
                   view_of(t, x)};
}

Assertion definite_obs(ThreadId t, LocId x, Value v) {
  const std::string name =
      support::concat("[loc", x, "=", v, "]_", fmt(t));
  return Assertion{name,
                   [t, x, v](const System&, const Config& cfg) {
                     const OpId last = cfg.mem.last_op(x);
                     return cfg.mem.view_front(t, x) == last &&
                            cfg.mem.op(last).value == v;
                   },
                   view_of(t, x)};
}

Assertion cond_obs(ThreadId t, LocId x, Value u, LocId y, Value v) {
  const std::string name =
      support::concat("<loc", x, "=", u, ">[loc", y, "=", v, "]_", fmt(t));
  return Assertion{name,
                   [t, x, u, y, v](const System&, const Config& cfg) {
                     for (const OpId w : cfg.mem.observable(t, x)) {
                       const auto& op = cfg.mem.op(w);
                       if (op.value != u) continue;
                       if (!op.releasing) return false;
                       if (!dview_is(cfg.mem, w, y, v)) return false;
                     }
                     return true;
                   },
                   merge_footprints(view_of(t, x), locations_of({y}))};
}

Assertion covered_var(LocId x, Value u) {
  const std::string name = support::concat("C_loc", x, "^", u);
  return Assertion{name,
                   [x, u](const System&, const Config& cfg) {
                     const OpId last = cfg.mem.last_op(x);
                     for (const OpId w : cfg.mem.mo(x)) {
                       const auto& op = cfg.mem.op(w);
                       if (op.covered) continue;
                       if (w != last || op.value != u) return false;
                     }
                     return true;
                   },
                   locations_of({x})};
}

Assertion hidden_var(LocId x, Value u) {
  const std::string name = support::concat("H_loc", x, "^", u);
  return Assertion{name,
                   [x, u](const System&, const Config& cfg) {
                     bool exists = false;
                     for (const OpId w : cfg.mem.mo(x)) {
                       const auto& op = cfg.mem.op(w);
                       if (!is_var_write(op) || op.value != u) continue;
                       exists = true;
                       if (!op.covered) return false;
                     }
                     return exists;
                   },
                   locations_of({x})};
}

// --- lock --------------------------------------------------------------------

namespace {

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::LockAcquire: return "acquire";
    case OpKind::LockRelease: return "release";
    case OpKind::Init: return "init";
    default: return "op";
  }
}

}  // namespace

Assertion lock_possible_release(ThreadId t, LocId l, Value u) {
  const std::string name = support::concat("<l", l, ".release_", u, ">_", fmt(t));
  return Assertion{name,
                   [t, l, u](const System&, const Config& cfg) {
                     const auto front = cfg.mem.rank(cfg.mem.view_front(t, l));
                     const auto order = cfg.mem.mo(l);
                     for (std::size_t i = front; i < order.size(); ++i) {
                       const auto& op = cfg.mem.op(order[i]);
                       if (op.kind == OpKind::LockRelease && op.value == u) {
                         return true;
                       }
                     }
                     return false;
                   },
                   view_of(t, l)};
}

Assertion lock_definite(ThreadId t, LocId l, OpKind kind, Value u) {
  const std::string name =
      support::concat("[l", l, ".", kind_name(kind), "_", u, "]_", fmt(t));
  return Assertion{name,
                   [t, l, kind, u](const System&, const Config& cfg) {
                     const OpId last = cfg.mem.last_op(l);
                     if (cfg.mem.view_front(t, l) != last) return false;
                     const auto& op = cfg.mem.op(last);
                     return op.kind == kind && op.value == u;
                   },
                   view_of(t, l)};
}

Assertion lock_cond_obs(ThreadId t, LocId l, Value u, LocId y, Value v) {
  const std::string name = support::concat("<l", l, ".release_", u, ">[loc", y,
                                           "=", v, "]_", fmt(t));
  return Assertion{name,
                   [t, l, u, y, v](const System&, const Config& cfg) {
                     const auto front = cfg.mem.rank(cfg.mem.view_front(t, l));
                     const auto order = cfg.mem.mo(l);
                     for (std::size_t i = front; i < order.size(); ++i) {
                       const auto& op = cfg.mem.op(order[i]);
                       if (op.kind != OpKind::LockRelease || op.value != u) {
                         continue;
                       }
                       if (!dview_is(cfg.mem, order[i], y, v)) return false;
                     }
                     return true;
                   },
                   merge_footprints(view_of(t, l), locations_of({y}))};
}

Assertion lock_covered(LocId l, OpKind kind, Value u) {
  const std::string name = support::concat("C_l", l, ".", kind_name(kind), "_", u);
  return Assertion{name,
                   [l, kind, u](const System&, const Config& cfg) {
                     const OpId last = cfg.mem.last_op(l);
                     for (const OpId w : cfg.mem.mo(l)) {
                       const auto& op = cfg.mem.op(w);
                       if (op.covered) continue;
                       if (w != last || op.kind != kind || op.value != u) {
                         return false;
                       }
                     }
                     return true;
                   },
                   locations_of({l})};
}

Assertion lock_hidden(LocId l, OpKind kind, Value u) {
  const std::string name = support::concat("H_l", l, ".", kind_name(kind), "_", u);
  return Assertion{name,
                   [l, kind, u](const System&, const Config& cfg) {
                     bool exists = false;
                     for (const OpId w : cfg.mem.mo(l)) {
                       const auto& op = cfg.mem.op(w);
                       if (op.kind != kind || op.value != u) continue;
                       exists = true;
                       if (!op.covered) return false;
                     }
                     return exists;
                   },
                   locations_of({l})};
}

Assertion lock_hidden_init(LocId l) {
  return lock_hidden(l, OpKind::Init, 0);
}

Assertion lock_held_by(ThreadId t, LocId l) {
  const std::string name = support::concat("held(l", l, ")_", fmt(t));
  return Assertion{name,
                   [t, l](const System&, const Config& cfg) {
                     const auto& op = cfg.mem.op(cfg.mem.last_op(l));
                     return op.kind == OpKind::LockAcquire && op.thread == t;
                   },
                   locations_of({l})};
}

// --- stack -------------------------------------------------------------------

namespace {

/// The push a pop on `s` would return; none off a stack location, so that
/// the stack assertions stay total over every location.
std::optional<OpId> top_of(const MemState& mem, LocId s) {
  if (mem.locations().kind(s) != memsem::LocKind::Stack) return std::nullopt;
  return objects::container_next(mem, s);
}

}  // namespace

Assertion stack_can_pop(LocId s, Value v) {
  const std::string name = support::concat("<s", s, ".pop_", v, ">");
  return Assertion{name,
                   [s, v](const System&, const Config& cfg) {
                     const auto top = top_of(cfg.mem, s);
                     return top && cfg.mem.op(*top).value == v;
                   },
                   locations_of({s})};
}

Assertion stack_pop_empty_only(LocId s) {
  const std::string name = support::concat("[s", s, ".pop_emp]");
  return Assertion{name,
                   [s](const System&, const Config& cfg) {
                     return !top_of(cfg.mem, s).has_value();
                   },
                   locations_of({s})};
}

Assertion stack_cond_obs(LocId s, Value v, LocId y, Value n) {
  const std::string name =
      support::concat("<s", s, ".pop_", v, ">[loc", y, "=", n, "]");
  return Assertion{name,
                   [s, v, y, n](const System&, const Config& cfg) {
                     const auto top = top_of(cfg.mem, s);
                     if (!top || cfg.mem.op(*top).value != v) return true;
                     const auto& op = cfg.mem.op(*top);
                     return op.releasing && dview_is(cfg.mem, *top, y, n);
                   },
                   locations_of({s, y})};
}

// --- program predicates --------------------------------------------------------

Assertion at_pc(ThreadId t, std::uint32_t pc) {
  const std::string name = support::concat("pc", fmt(t), "=", pc);
  return Assertion{name,
                   [t, pc](const System&, const Config& cfg) {
                     return cfg.pc[t] == pc;
                   },
                   thread_of(t)};
}

Assertion pc_in(ThreadId t, std::set<std::uint32_t> pcs) {
  std::ostringstream os;
  os << "pc" << t << " in {";
  for (const auto p : pcs) os << p << " ";
  os << "}";
  return Assertion{os.str(),
                   [t, pcs = std::move(pcs)](const System&, const Config& cfg) {
                     return pcs.count(cfg.pc[t]) > 0;
                   },
                   thread_of(t)};
}

Assertion thread_done(ThreadId t) {
  const std::string name = support::concat("done_", fmt(t));
  return Assertion{name,
                   [t](const System& sys, const Config& cfg) {
                     return cfg.thread_done(sys, t);
                   },
                   thread_of(t)};
}

Assertion reg_eq(Reg r, Value v) {
  const std::string name = support::concat("r", r.id, "@t", r.thread, "=", v);
  return Assertion{name,
                   [r, v](const System&, const Config& cfg) {
                     return cfg.regs[r.thread][r.id] == v;
                   },
                   thread_of(r.thread)};
}

Assertion reg_in(Reg r, std::set<Value> values) {
  std::ostringstream os;
  os << "r" << r.id << "@t" << r.thread << " in {";
  for (const auto v : values) os << v << " ";
  os << "}";
  return Assertion{os.str(),
                   [r, values = std::move(values)](const System&,
                                                   const Config& cfg) {
                     return values.count(cfg.regs[r.thread][r.id]) > 0;
                   },
                   thread_of(r.thread)};
}

}  // namespace assertions
