// rc11lib/objects/container.hpp
//
// The abstract synchronising containers: the stack of the paper's motivating
// examples (Figures 1-3) and a FIFO queue.  Both are built on Section 4's
// discipline, and they differ only in which uncovered insert a remove
// consumes; the location's kind decides which:
//
//   * every insert (push, enqueue) takes a maximal timestamp on the
//     container's location, so the insert history is totally ordered (like
//     the lock history);
//   * a remove (pop, dequeue) consumes (covers) one uncovered insert: the
//     *newest* on a LocKind::Stack (LIFO over the total order), the *oldest*
//     on a LocKind::Queue (FIFO).  If the remove is acquiring and the matched
//     insert releasing, the removing thread synchronises with the insert's
//     modification view: this is exactly what makes Fig. 2/3's message
//     passing work and what is missing in Fig. 1 (relaxed operations);
//   * a remove on an empty container (all inserts covered or none exist)
//     returns Empty (kStackEmpty, kQueueEmpty) and does not change the state,
//     so retry loops do not grow the operation history.
//
// The paper motivates the stack but formalises only the lock, so this
// ordering semantics is our design (docs/SEMANTICS.md §4).  Unlike the lock,
// a remove appends no operation of its own: the observability assertions of
// Section 5.1 (⟨s.pop_v⟩, [s.pop_emp]) are about which values *can be
// removed*, which the set of uncovered inserts answers directly.
//
// Every function throws InternalError on a location that is neither a stack
// nor a queue.

#pragma once

#include <optional>

#include "memsem/state.hpp"

namespace rc11::objects {

using memsem::LocId;
using memsem::MemState;
using memsem::OpId;
using memsem::ThreadId;
using memsem::Value;

/// The uncovered insert a remove on `loc` would consume, if any: the newest
/// StackPush on a stack, the oldest QueueEnqueue on a queue.
[[nodiscard]] std::optional<OpId> container_next(const MemState& mem,
                                                 LocId loc);

/// True iff a remove would return Empty.
[[nodiscard]] bool container_empty(const MemState& mem, LocId loc);

/// Inserts `v` (releasing when `releasing`: the paper's push^R, enq^R).
OpId container_insert(MemState& mem, ThreadId t, LocId loc, Value v,
                      bool releasing);

/// Removes: consumes container_next and returns its value, synchronising when
/// the remove acquires and the insert releases; returns Empty on an empty
/// container (state unchanged).
Value container_remove(MemState& mem, ThreadId t, LocId loc, bool acquiring);

/// Number of uncovered inserts.
[[nodiscard]] std::size_t container_size(const MemState& mem, LocId loc);

}  // namespace rc11::objects
