#include "memsem/validate.hpp"

#include "support/diagnostics.hpp"

namespace rc11::memsem {

namespace {

std::optional<std::string> check_mo(const MemState& m, LocId loc) {
  const auto order = m.mo(loc);
  if (order.empty()) return support::concat("loc ", loc, ": empty mo");
  if (m.op(order[0]).kind != OpKind::Init) {
    return support::concat("loc ", loc, ": mo does not start with init");
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Op& op = m.op(order[i]);
    if (op.loc != loc) {
      return support::concat("loc ", loc, ": op at rank ", i,
                             " belongs to loc ", op.loc);
    }
    if (op.mo_pos != i) {
      return support::concat("loc ", loc, ": cached rank ", op.mo_pos,
                             " != position ", i);
    }
    if (i > 0 && !(m.op(order[i - 1]).ts < op.ts)) {
      return support::concat("loc ", loc,
                             ": timestamps not strictly increasing at rank ", i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_views(const MemState& m) {
  const auto num_locs = m.locations().size();
  for (ThreadId t = 0; t < m.num_threads(); ++t) {
    for (LocId loc = 0; loc < num_locs; ++loc) {
      const OpId front = m.view_front(t, loc);
      if (m.op(front).loc != loc) {
        return support::concat("tview of t", t, " at loc ", loc,
                               " points to loc ", m.op(front).loc);
      }
    }
  }
  for (LocId loc = 0; loc < num_locs; ++loc) {
    for (const OpId id : m.mo(loc)) {
      const Op& op = m.op(id);
      const auto mview = m.mview(id);
      for (LocId l2 = 0; l2 < num_locs; ++l2) {
        if (mview[l2] >= m.num_ops()) {
          return support::concat("op at loc ", loc, " rank ", op.mo_pos,
                                 ": mview entry for loc ", l2, " is unset");
        }
        if (m.op(mview[l2]).loc != l2) {
          return support::concat("mview entry for loc ", l2,
                                 " points to the wrong location");
        }
      }
      if (mview[loc] != id) {
        return support::concat("op at loc ", loc, " rank ", op.mo_pos,
                               ": mview does not include the op itself");
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_updates(const MemState& m, LocId loc) {
  const auto order = m.mo(loc);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Op& op = m.op(order[i]);
    if (op.kind != OpKind::Update) continue;
    if (i == 0) return "update at rank 0";
    const Op& prev = m.op(order[i - 1]);
    if (!prev.covered) {
      return support::concat("loc ", loc, ": update at rank ", i,
                             " follows an uncovered op");
    }
    if (prev.value != op.read_value) {
      return support::concat("loc ", loc, ": update at rank ", i, " read ",
                             op.read_value, " but predecessor wrote ",
                             prev.value);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_lock_history(const MemState& m, LocId loc) {
  const auto order = m.mo(loc);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Op& op = m.op(order[i]);
    const bool expect_acquire = i % 2 == 1;
    if (i == 0) {
      if (op.kind != OpKind::Init) return "lock history must start with init";
    } else if (expect_acquire && op.kind != OpKind::LockAcquire) {
      return support::concat("lock rank ", i, ": expected acquire");
    } else if (!expect_acquire && i > 0 && op.kind != OpKind::LockRelease) {
      return support::concat("lock rank ", i, ": expected release");
    }
    if (static_cast<std::size_t>(op.value) != i) {
      return support::concat("lock rank ", i, ": version ", op.value);
    }
    const bool is_last = i + 1 == order.size();
    const bool is_sync_source =
        op.kind == OpKind::Init || op.kind == OpKind::LockRelease;
    if (is_sync_source && !is_last && !op.covered) {
      return support::concat("lock rank ", i,
                             ": init/release followed by an acquire must be "
                             "covered");
    }
    if (op.kind == OpKind::LockAcquire && op.covered) {
      return support::concat("lock rank ", i, ": acquires are never covered");
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_covered_vars(const MemState& m, LocId loc) {
  const auto order = m.mo(loc);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (m.op(order[i]).covered && i + 1 == order.size()) {
      return support::concat("loc ", loc,
                             ": covered variable write at the end of mo");
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate(const MemState& m) {
  const auto num_locs = m.locations().size();
  for (LocId loc = 0; loc < num_locs; ++loc) {
    if (auto err = check_mo(m, loc)) return err;
    switch (m.locations().kind(loc)) {
      case LocKind::Var:
        if (auto err = check_updates(m, loc)) return err;
        if (auto err = check_covered_vars(m, loc)) return err;
        break;
      case LocKind::Lock:
        if (auto err = check_lock_history(m, loc)) return err;
        break;
      case LocKind::Stack:
      case LocKind::Queue:
        break;  // consumed (covered) entries may sit anywhere
    }
  }
  return check_views(m);
}

std::optional<std::string> validate_view_monotone(const MemState& before,
                                                  const MemState& after) {
  RC11_REQUIRE(before.num_threads() == after.num_threads() &&
                   before.locations().size() == after.locations().size(),
               "validate_view_monotone over different systems");
  for (ThreadId t = 0; t < before.num_threads(); ++t) {
    for (LocId loc = 0; loc < before.locations().size(); ++loc) {
      // Compare rational timestamps: ranks shift under insertion, timestamps
      // never do.
      const auto& before_ts = before.op(before.view_front(t, loc)).ts;
      const auto& after_ts = after.op(after.view_front(t, loc)).ts;
      if (after_ts < before_ts) {
        return support::concat("view of t", t, " for loc ", loc,
                               " moved backwards");
      }
    }
  }
  return std::nullopt;
}

}  // namespace rc11::memsem
