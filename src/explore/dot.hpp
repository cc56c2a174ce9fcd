// rc11lib/explore/dot.hpp
//
// Graphviz DOT export of reachable-state graphs — handy for visualising the
// behaviours of small litmus tests and for debugging refinement failures
// (pipe through `dot -Tsvg`).

#pragma once

#include <string>

#include "refinement/refinement.hpp"

namespace rc11::explore {

struct DotOptions {
  /// Node captions: per-thread pcs always; registers when true.
  bool show_registers = true;
  /// Edge captions from the graph's step labels (requires a labelled graph).
  bool show_edge_labels = true;
  /// Highlight final (all-done) states with a double border.
  bool mark_finals = true;
  std::string graph_name = "rc11";
};

/// Renders a state graph to DOT.  Build the graph with
/// refinement::build_graph(sys, {.want_labels = true}) if edge labels are
/// wanted.
[[nodiscard]] std::string to_dot(const lang::System& sys,
                                 const refinement::StateGraph& graph,
                                 const DotOptions& options = {});

}  // namespace rc11::explore
