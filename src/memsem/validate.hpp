// rc11lib/memsem/validate.hpp
//
// Structural well-formedness of weak-memory states.  These are the
// invariants the paper's soundness arguments rest on; the engine is designed
// to maintain them by construction, and the differential matrix's P1 row
// (tests/matrix.hpp) re-checks them on every reachable state of every input
// (property testing the Fig. 5 / Fig. 6 implementation):
//
//   1. modification orders are strictly increasing in (rational) timestamp
//      and agree with the cached ranks;
//   2. thread viewfronts point at operations of the right location;
//   3. every operation's modification view covers all locations, points at
//      operations of the right location, and includes the operation itself
//      at its own location;
//   4. update adjacency: an update sits immediately after the (now covered)
//      operation it read from, and read_value matches (the paper's update
//      atomicity argument);
//   5. lock histories are an alternation init (acquire release)* [acquire]
//      with version numbers equal to ranks, non-final init/release covered;
//   6. covered plain-variable writes are followed by an update or by another
//      write that was placed behind them before later operations arrived —
//      precisely: every covered variable write has a successor (nothing can
//      be covered at the end of mo while cvd enforcement is on).

#pragma once

#include <optional>
#include <string>

#include "memsem/state.hpp"

namespace rc11::memsem {

/// Returns a description of the first violated invariant, or std::nullopt if
/// the state is well-formed.  Checks assume default SemanticsOptions (the
/// ablations deliberately break some invariants).
[[nodiscard]] std::optional<std::string> validate(const MemState& state);

/// View monotonicity across a transition: every thread's viewfront rank per
/// location in `after` is at least its rank in `before` (views only move
/// forward).  Locations and thread counts must agree.
[[nodiscard]] std::optional<std::string> validate_view_monotone(
    const MemState& before, const MemState& after);

}  // namespace rc11::memsem
