// message_passing — the paper's motivating story (Sections 1-2, Figures 1-3):
// a client passes a message through a library *stack*.
//
//   Fig. 1: relaxed push/pop — popping the message does NOT guarantee seeing
//           the client's data write (stale r2 = 0 is reachable).
//   Fig. 2: releasing push / acquiring pop — the pop synchronises, so
//           r2 = 5 is the only outcome.
//   Fig. 3: the proof outline for Fig. 2's program, checked mechanically
//           (validity at every reachable state + Owicki-Gries interference
//           freedom).
//
// The Fig. 1 and Fig. 2 programs are the corpus files
// tools/programs/mp_stack_rlx.rc11 and tools/programs/mp_stack.rc11.

#include <iostream>
#include <string>

#include "explore/explorer.hpp"
#include "og/catalog.hpp"
#include "parser/parser.hpp"

namespace {

void show(const std::string& title, const std::string& file) {
  using namespace rc11;
  std::cout << "== " << title << " (" << file << ")\n";
  const auto program = parser::parse_file(std::string(RC11_SRC_DIR) +
                                          "/tools/programs/" + file);
  const auto result = explore::explore(program.sys);
  const auto outcomes = explore::final_register_values(
      program.sys, result, {program.reg("r1"), program.reg("r2")});
  std::cout << "   " << result.stats.states << " states; outcomes (r1, r2):";
  for (const auto& o : outcomes) {
    std::cout << " (" << o[0] << "," << o[1] << ")";
  }
  std::cout << "\n\n";
}

}  // namespace

int main() {
  using namespace rc11;

  show("Fig. 1: unsynchronised message passing via a relaxed stack",
       "mp_stack_rlx.rc11");
  show("Fig. 2: publication via a synchronising stack (pushR/popA)",
       "mp_stack.rc11");

  std::cout << "== Fig. 3 proof outline for the synchronising program\n";
  auto ex = og::make_fig3();
  og::OutlineCheckOptions opts;
  opts.check_interference = true;
  const auto check = og::check_outline(ex.sys, ex.outline, opts);
  std::cout << "   outline "
            << (check.valid ? "VALID" : "INVALID") << " ("
            << check.stats.states << " states, " << check.obligations_checked
            << " proof obligations)\n";

  std::cout << "\n== and the broken outline claiming r2 = 0...\n";
  auto broken = og::make_fig3_broken();
  const auto broken_check = og::check_outline(broken.sys, broken.outline);
  std::cout << "   outline "
            << (broken_check.valid ? "VALID (bug!)" : "correctly REJECTED");
  if (!broken_check.valid) {
    std::cout << "\n   first failed obligation: "
              << broken_check.failures[0].obligation;
  }
  std::cout << "\n";
  return (check.valid && !broken_check.valid) ? 0 : 1;
}
