#include "objects/container.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace rc11::objects {

using memsem::kQueueEmpty;
using memsem::kStackEmpty;
using memsem::LocKind;
using memsem::OpKind;

namespace {

/// What a container location's kind decides.
struct Discipline {
  OpKind insert;  ///< the operation an insert appends
  bool lifo;      ///< a remove takes the newest uncovered insert (else oldest)
  Value empty;    ///< what a remove on an empty container returns
};

Discipline discipline(const MemState& mem, LocId loc) {
  const LocKind kind = mem.locations().kind(loc);
  RC11_REQUIRE(kind == LocKind::Stack || kind == LocKind::Queue,
               "container operation on non-container location");
  if (kind == LocKind::Stack) return {OpKind::StackPush, true, kStackEmpty};
  return {OpKind::QueueEnqueue, false, kQueueEmpty};
}

/// True iff `id` is an insert that no remove has consumed yet.
bool uncovered(const MemState& mem, OpId id, OpKind insert) {
  const auto& op = mem.op(id);
  return op.kind == insert && !op.covered;
}

}  // namespace

std::optional<OpId> container_next(const MemState& mem, LocId loc) {
  const Discipline d = discipline(mem, loc);
  const auto pending = [&](OpId id) { return uncovered(mem, id, d.insert); };
  const auto order = mem.mo(loc);
  if (d.lifo) {
    const auto it = std::find_if(order.rbegin(), order.rend(), pending);
    if (it != order.rend()) return *it;
  } else {
    const auto it = std::find_if(order.begin(), order.end(), pending);
    if (it != order.end()) return *it;
  }
  return std::nullopt;
}

bool container_empty(const MemState& mem, LocId loc) {
  return !container_next(mem, loc).has_value();
}

OpId container_insert(MemState& mem, ThreadId t, LocId loc, Value v,
                      bool releasing) {
  return mem.object_op(t, loc, discipline(mem, loc).insert, v, releasing,
                       /*sync_with=*/std::nullopt, /*cover=*/false);
}

Value container_remove(MemState& mem, ThreadId t, LocId loc, bool acquiring) {
  const auto next = container_next(mem, loc);
  if (!next) return discipline(mem, loc).empty;
  const auto& op = mem.op(*next);
  const Value v = op.value;
  mem.consume(t, loc, *next, acquiring && op.releasing);
  return v;
}

std::size_t container_size(const MemState& mem, LocId loc) {
  const OpKind insert = discipline(mem, loc).insert;
  const auto order = mem.mo(loc);
  return static_cast<std::size_t>(std::count_if(
      order.begin(), order.end(),
      [&](OpId id) { return uncovered(mem, id, insert); }));
}

}  // namespace rc11::objects
