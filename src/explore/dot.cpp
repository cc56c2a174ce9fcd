#include "explore/dot.hpp"

#include <sstream>

#include "support/text.hpp"

namespace rc11::explore {

namespace {

using support::dot_escape;

std::string node_caption(const lang::System& sys, const lang::Config& cfg) {
  std::ostringstream os;
  os << "pc=(";
  for (std::size_t t = 0; t < cfg.pc.size(); ++t) {
    os << (t ? "," : "") << cfg.pc[t];
  }
  os << ")";
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    for (lang::RegId r = 0; r < cfg.regs[t].size(); ++r) {
      os << "\n" << sys.reg_name(t, r) << "=" << cfg.regs[t][r];
    }
  }
  return os.str();
}

}  // namespace

std::string to_dot(const lang::System& sys,
                   const refinement::StateGraph& graph) {
  std::ostringstream os;
  os << "digraph rc11 {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=box, fontname=\"monospace\", fontsize=9];\n"
     << "  edge [fontname=\"monospace\", fontsize=8];\n";
  for (std::uint32_t i = 0; i < graph.num_states(); ++i) {
    os << "  s" << i << " [label=\""
       << dot_escape(node_caption(sys, graph.states[i])) << "\"";
    if (i == graph.initial) os << ", style=bold";
    if (graph.states[i].all_done(sys)) os << ", peripheries=2";
    os << "];\n";
  }
  const bool labelled = graph.labels.size() == graph.num_states();
  for (std::uint32_t i = 0; i < graph.num_states(); ++i) {
    for (std::size_t e = 0; e < graph.succ[i].size(); ++e) {
      os << "  s" << i << " -> s" << graph.succ[i][e];
      if (labelled) {
        os << " [label=\"" << dot_escape(graph.labels[i][e]) << "\"]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace rc11::explore
