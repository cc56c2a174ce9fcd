// rc11lib/explore/dot.hpp
//
// Graphviz DOT export of reachable-state graphs — handy for visualising the
// behaviours of small litmus tests and for debugging refinement failures
// (pipe through `dot -Tsvg`).

#pragma once

#include <string>

#include "refinement/refinement.hpp"

namespace rc11::explore {

/// Renders a state graph to DOT as the digraph `rc11`: each node captioned
/// with its per-thread pcs and registers, the initial state bold, final
/// (all-done) states double-bordered, and each edge captioned with its step
/// label when the graph has labels (build it with
/// refinement::build_graph(sys, {.want_labels = true})).
[[nodiscard]] std::string to_dot(const lang::System& sys,
                                 const refinement::StateGraph& graph);

}  // namespace rc11::explore
