// The program generators shared by the tests.
//   * The small-program generator of the property tests: two-thread
//     programs over two client variables x and y, each thread running a
//     short sequence of instruction templates (plain and release stores,
//     plain and acquire loads, CAS and FAI), and its three sweeps.
//     test_matrix runs every swept program through the differential
//     matrix; test_og checks the assertion read sets and the interference
//     plan.
//   * mp_compute and mp_spin_compute, the message-passing family of the
//     partial-order reduction, sized by the amount of local work.

#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lang/system.hpp"
#include "support/diagnostics.hpp"

namespace rc11::testgen {

/// One instruction template; `emit` adds it to a thread over the given
/// variable, register and a value unique to the (thread, slot).
struct Vocab {
  const char* name;
  std::function<void(lang::ThreadBuilder&, lang::LocId, lang::Reg, lang::Value)>
      emit;
};

inline std::vector<Vocab> core_vocab() {
  using lang::c;
  using lang::Reg;
  using lang::ThreadBuilder;
  using lang::Value;
  return {
      {"st", [](ThreadBuilder& tb, lang::LocId v, Reg, Value u) {
         tb.store(v, c(u));
       }},
      {"stR", [](ThreadBuilder& tb, lang::LocId v, Reg, Value u) {
         tb.store_rel(v, c(u));
       }},
      {"ld", [](ThreadBuilder& tb, lang::LocId v, Reg r, Value) {
         tb.load(r, v);
       }},
      {"ldA", [](ThreadBuilder& tb, lang::LocId v, Reg r, Value) {
         tb.load_acq(r, v);
       }},
  };
}

inline std::vector<Vocab> rmw_vocab() {
  using lang::c;
  using lang::Reg;
  using lang::ThreadBuilder;
  using lang::Value;
  auto vocab = core_vocab();
  vocab.push_back({"cas", [](ThreadBuilder& tb, lang::LocId v, Reg r, Value u) {
                     tb.cas(r, v, c(0), c(u));
                   }});
  vocab.push_back({"fai", [](ThreadBuilder& tb, lang::LocId v, Reg r, Value) {
                     tb.fai(r, v);
                   }});
  return vocab;
}

struct Generated {
  lang::System sys;
  std::vector<lang::Reg> regs;
  std::string description;
};

/// Builds the program where thread t executes the instruction templates
/// selected by `choice[t][slot]` over variables selected by `var[t][slot]`.
inline Generated build(const std::vector<Vocab>& vocab,
                       const std::array<std::array<int, 2>, 2>& choice,
                       const std::array<std::array<int, 2>, 2>& var) {
  Generated g;
  const auto x = g.sys.client_var("x", 0);
  const auto y = g.sys.client_var("y", 0);
  const lang::LocId vars[2] = {x, y};
  for (std::size_t t = 0; t < 2; ++t) {
    auto tb = g.sys.thread();
    for (std::size_t s = 0; s < 2; ++s) {
      std::string name = "r";
      name += std::to_string(t);
      name += std::to_string(s);
      auto r = tb.reg(name);
      g.regs.push_back(r);
      const auto& v = vocab[static_cast<std::size_t>(choice[t][s])];
      const auto uniq = static_cast<lang::Value>(10 * (t + 1) + s + 1);
      v.emit(tb, vars[var[t][s]], r, uniq);
      g.description += std::string(v.name) + (var[t][s] ? "y " : "x ");
    }
    g.description += "| ";
  }
  return g;
}

/// The core sweep: every two-slot program over the core vocabulary, 4^4
/// instruction combinations x 4 variable patterns = 1024 programs.  Thread
/// 0 uses (x, y-or-x) and thread 1 (y, y-or-x); the pattern enumerates the
/// four combinations of second-slot variables.
inline std::vector<Generated> core_exhaustive_programs() {
  const auto vocab = core_vocab();
  const int n = static_cast<int>(vocab.size());
  std::vector<Generated> out;
  for (int c00 = 0; c00 < n; ++c00)
    for (int c01 = 0; c01 < n; ++c01)
      for (int c10 = 0; c10 < n; ++c10)
        for (int c11 = 0; c11 < n; ++c11)
          for (int vc = 0; vc < 4; ++vc) {
            out.push_back(build(vocab, {{{c00, c01}, {c10, c11}}},
                                {{{0, vc & 1}, {1, (vc >> 1) & 1}}}));
          }
  return out;
}

/// The RMW diagonal sweep: with CAS/FAI included the full product is large,
/// so thread 1's slots mirror thread 0's choices shifted by one, over the
/// four variable patterns — still every ordered pair of vocabulary entries
/// across the threads, in 144 programs.
inline std::vector<Generated> rmw_diagonal_programs() {
  const auto vocab = rmw_vocab();
  const int n = static_cast<int>(vocab.size());
  std::vector<Generated> out;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      for (int vc = 0; vc < 4; ++vc) {
        out.push_back(build(vocab, {{{a, b}, {b, (a + 1) % n}}},
                            {{{0, vc & 1}, {1, (vc >> 1) & 1}}}));
      }
    }
  }
  return out;
}

/// The three-slot mirrored sweep: three core-vocabulary instructions per
/// thread, thread 1 running the reverse of thread 0's templates over
/// swapped variables, in 256 programs.
inline std::vector<Generated> three_slot_mirrored_programs() {
  const auto vocab = core_vocab();
  const int n = static_cast<int>(vocab.size());
  std::vector<Generated> out;
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b)
      for (int cc = 0; cc < n; ++cc)
        for (int vc = 0; vc < 4; ++vc) {
          Generated g;
          const auto x = g.sys.client_var("x", 0);
          const auto y = g.sys.client_var("y", 0);
          const lang::LocId vars[2] = {x, y};
          const int t0_choice[3] = {a, b, cc};
          const int t0_var[3] = {0, vc & 1, (vc >> 1) & 1};
          for (int t = 0; t < 2; ++t) {
            auto tb = g.sys.thread();
            for (int s = 0; s < 3; ++s) {
              std::string name = "r";
              name += std::to_string(t);
              name += std::to_string(s);
              auto r = tb.reg(name);
              g.regs.push_back(r);
              const int slot = t == 0 ? s : 2 - s;
              const auto& v = vocab[static_cast<std::size_t>(t0_choice[slot])];
              const int vi = t == 0 ? t0_var[slot] : 1 - t0_var[slot];
              v.emit(tb, vars[vi], r, 10 * (t + 1) + s + 1);
              g.description += std::string(v.name) + (vi ? "y " : "x ");
            }
            g.description += "| ";
          }
          out.push_back(std::move(g));
        }
  return out;
}

/// Message passing with a computed payload: the producer assembles its
/// message through a chain of `work` local assignments before the
/// d-then-release-f handoff, and the consumer post-processes what it read
/// through another chain of `work` local assignments.  It has no fixed
/// expected outcome set; every local step interleaves with the other thread
/// in the full graph but collapses under --por.  With `spin` the consumer
/// acquires f in a do-until loop instead of a single load, adding the spin
/// states a real message-passing idiom has.
inline lang::System mp_compute(unsigned work, bool spin = false) {
  using lang::c;
  using lang::Expr;
  support::require(work >= 1, "mp_compute needs work >= 1");
  lang::System sys;
  const auto d = sys.client_var("d", 0);
  const auto f = sys.client_var("f", 0);

  auto t0 = sys.thread();
  auto v = t0.reg("v");
  t0.assign(v, c(1));
  for (unsigned w = 1; w < work; ++w) {
    t0.assign(v, Expr{v} + c(2));
  }
  t0.store(d, Expr{v});
  t0.store_rel(f, c(1));

  auto t1 = sys.thread();
  auto r1 = t1.reg("r1");
  auto r2 = t1.reg("r2");
  auto s = t1.reg("s");
  if (spin) {
    t1.do_until([&] { t1.load_acq(r1, f); }, Expr{r1} == c(1));
  } else {
    t1.load_acq(r1, f);
  }
  t1.load(r2, d);
  t1.assign(s, Expr{r2} * c(2));
  for (unsigned w = 1; w < work; ++w) {
    t1.assign(s, Expr{s} + c(1));
  }
  return sys;
}

inline lang::System mp_spin_compute(unsigned work) {
  return mp_compute(work, /*spin=*/true);
}

}  // namespace rc11::testgen
