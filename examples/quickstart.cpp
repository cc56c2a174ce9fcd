// quickstart — build a weak-memory program with the public API, explore every
// behaviour the RC11 RAR semantics allows, and query the outcome set.
//
//   $ ./quickstart
//
// The program is the classic message-passing shape: with a releasing flag
// write and an acquiring flag read, seeing the flag implies seeing the data.

#include <iostream>

#include "explore/explorer.hpp"
#include "lang/system.hpp"

int main() {
  using namespace rc11;
  using lang::c;

  // 1. Declare the system: shared variables (with mandatory initial values)
  //    and threads.
  lang::System sys;
  const auto data = sys.client_var("data", 0);
  const auto flag = sys.client_var("flag", 0);

  auto producer = sys.thread();
  producer.store(data, c(42));     // relaxed write
  producer.store_rel(flag, c(1));  // releasing write

  auto consumer = sys.thread();
  const auto r_flag = consumer.reg("r_flag");
  const auto r_data = consumer.reg("r_data");
  consumer.load_acq(r_flag, flag);  // acquiring read
  consumer.load(r_data, data);      // relaxed read

  std::cout << "Program:\n" << sys.disassemble() << "\n";

  // 2. Explore every reachable configuration.
  const auto result = explore::explore(sys);
  std::cout << "Explored " << result.stats.states << " states, "
            << result.stats.transitions << " transitions, "
            << result.stats.finals << " final states.\n\n";

  // 3. Query the outcome set.
  const auto outcomes =
      explore::final_register_values(sys, result, {r_flag, r_data});
  std::cout << "Reachable (r_flag, r_data) outcomes:\n";
  for (const auto& o : outcomes) {
    std::cout << "  r_flag = " << o[0] << ", r_data = " << o[1] << "\n";
  }

  const bool stale_forbidden =
      !explore::outcome_reachable(sys, result, {r_flag, r_data}, {1, 0});
  std::cout << "\nStale read (flag seen, data missed) is "
            << (stale_forbidden ? "FORBIDDEN" : "ALLOWED")
            << " — release/acquire message passing "
            << (stale_forbidden ? "works" : "failed") << ".\n";
  return stale_forbidden ? 0 : 1;
}
