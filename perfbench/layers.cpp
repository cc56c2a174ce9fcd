// rc11-layers — the benchmark's traced per-layer run.
//
// Usage:
//   rc11-layers [--seconds S] run [--por] [--symmetry] program.rc11
//   rc11-layers [--seconds S] verify [--trace] program.rc11
//   rc11-layers [--seconds S] refine abstract.rc11 concrete.rc11
//
// Each front end is driven through the library's public functions only.  A
// *mirror* of the sequential reachability driver (engine/reach.cpp) runs the
// same search with a timer around every call into a layer:
//
//   lang      SystemTransitions::successors_into / thread_successors_into,
//             plus re-pushing each successor into a second StepBuffer (the
//             price of one Config copy)
//   memsem    Config::encode_into
//   engine    StateAbstraction::key, TransitionSystem::ample_thread, and the
//             visited-set inserts (InternedWordSet / ShardedVisitedSet)
//   og        Assertion::eval over the outline's obligations, per state
//
// The checkers themselves (explore::explore, og::check_outline,
// refinement::build_graph / check_forward_simulation /
// check_trace_inclusion) are timed whole, and a visitor's or a phase's self
// time is the checker's time minus a run of the same driver without it.
//
// Self-check: the mirror must reproduce the driver's state count, and its
// transition count when sleep sets are off, or the run exits 2.  Passes
// repeat until --seconds have elapsed; time metrics are the median over
// passes, counts must agree across passes.  The last line of stdout is one
// JSON object of metrics.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/abstraction.hpp"
#include "engine/reach.hpp"
#include "engine/sharded_visited.hpp"
#include "engine/transition_system.hpp"
#include "explore/explorer.hpp"
#include "og/proof_outline.hpp"
#include "parser/parser.hpp"
#include "refinement/refinement.hpp"
#include "support/intern.hpp"

namespace {

using namespace rc11;
using Clock = std::chrono::steady_clock;
using engine::ShardedVisitedSet;
using lang::Config;
using lang::Step;
using lang::StepBuffer;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds spent in one layer's calls, and how many calls.
struct Span {
  double s = 0;
  std::uint64_t calls = 0;
};

template <typename F>
decltype(auto) timed(Span& span, F&& f) {
  const auto t0 = Clock::now();
  span.calls += 1;
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    span.s += since(t0);
  } else {
    decltype(auto) r = f();
    span.s += since(t0);
    return r;
  }
}

/// What the mirror reproduces of one front end's driver configuration.
struct MirrorOptions {
  bool por = false;       ///< ample sets (and chain collapse, FinalState)
  bool sleep = false;     ///< sleep sets (set together with an abstraction)
  bool want_labels = false;
  bool traced = false;    ///< the visited set is a trace sink
};

/// The visited-set call the mirror made, replayed from four workers.
enum class InsertKind { Plain, Masked, Traced };

/// Counts and spans of one mirror run (summed over systems for refine).
struct MirrorStats {
  std::uint64_t states = 0, transitions = 0, finals = 0, blocked = 0;
  std::uint64_t por_reduced = 0, chained = 0;
  std::uint64_t steps_made = 0;    ///< Configs copied into a StepBuffer
  std::uint64_t words = 0;         ///< words over all encode_into calls
  std::uint64_t perms = 0;         ///< permutations over all key calls
  std::uint64_t visited_bytes = 0;
  std::uint64_t obligations = 0, failed_obligations = 0;
  Span succ, push, encode, key, ample, insert, visitor;
  double wall_s = 0;

  void add(const MirrorStats& o) {
    states += o.states; transitions += o.transitions; finals += o.finals;
    blocked += o.blocked; por_reduced += o.por_reduced; chained += o.chained;
    steps_made += o.steps_made; words += o.words; perms += o.perms;
    visited_bytes += o.visited_bytes;
    obligations += o.obligations; failed_obligations += o.failed_obligations;
    const std::array<std::pair<Span*, const Span*>, 7> spans{
        {{&succ, &o.succ}, {&push, &o.push}, {&encode, &o.encode},
         {&key, &o.key}, {&ample, &o.ample}, {&insert, &o.insert},
         {&visitor, &o.visitor}}};
    for (auto [mine, theirs] : spans) {
      mine->s += theirs->s;
      mine->calls += theirs->calls;
    }
    wall_s += o.wall_s;
  }
};

/// Every encoding the mirror offered its visited set, in order and
/// varint-compressed, for the four-worker replay.  Capped so a large
/// workload cannot exhaust memory; the replay then prices the recorded
/// prefix and scales by call count.
struct Recorded {
  static constexpr std::size_t kMaxBytes = std::size_t{256} << 20;
  InsertKind kind = InsertKind::Plain;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;
  std::uint64_t calls = 0;  ///< all insert calls, recorded or not

  void add(std::span<const std::uint64_t> enc) {
    calls += 1;
    if (bytes.size() + enc.size() * 10 > kMaxBytes) return;
    for (std::uint64_t w : enc) {
      while (w >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(w | 0x80));
        w >>= 7;
      }
      bytes.push_back(static_cast<std::uint8_t>(w));
    }
    ends.push_back(bytes.size());
  }

  /// Decodes call i into `out` (cleared first).
  void get(std::size_t i, std::vector<std::uint64_t>& out) const {
    out.clear();
    std::size_t p = i == 0 ? 0 : ends[i - 1];
    while (p < ends[i]) {
      std::uint64_t w = 0;
      unsigned shift = 0;
      while (bytes[p] >= 0x80) {
        w |= static_cast<std::uint64_t>(bytes[p++] & 0x7F) << shift;
        shift += 7;
      }
      w |= static_cast<std::uint64_t>(bytes[p++]) << shift;
      out.push_back(w);
    }
  }
};

/// Per-state hook (the outline's obligations); its time is the og layer's.
using StateHook =
    std::function<void(const Config&, std::span<const Step>, MirrorStats&)>;

/// A step-for-step copy of engine::sequential_reach for the configurations
/// the benchmark's workloads use: plain (optionally traced), or reduced by a
/// state abstraction with sleep sets and POR chain collapse.  The search
/// order is the driver's (LIFO), so counts match it exactly.
class Mirror {
 public:
  Mirror(const engine::TransitionSystem& ts,
         const engine::StateAbstraction* abs, MirrorOptions opts,
         StateHook hook, Recorded& rec)
      : ts_(ts), abs_(abs), opts_(opts), hook_(std::move(hook)), rec_(rec) {
    if (opts_.traced && (opts_.por || abs_ != nullptr)) {
      throw std::invalid_argument(
          "the mirror has no traced POR or traced abstraction path");
    }
    rec_.kind = abs_ ? InsertKind::Masked
                     : opts_.traced ? InsertKind::Traced : InsertKind::Plain;
  }

  MirrorStats run() {
    const auto t0 = Clock::now();
    const bool reduced = abs_ != nullptr;
    collapse_ = opts_.por && ts_.collapse_chains();
    Config init = ts_.initial();
    std::uint64_t id = ShardedVisitedSet::kNoState;
    if (opts_.traced) {
      encode(init);
      id = timed(st_.insert, [&] {
             return sink_.insert_traced(scratch_, ShardedVisitedSet::kNoState,
                                        0, "init");
           }).id;
      rec_.add(scratch_);
    } else if (!reduced) {
      encode(init);
      timed(st_.insert, [&] { return plain_.insert(scratch_); });
      rec_.add(scratch_);
    }
    if (reduced) {
      compute_key(init);
      masked_insert(key_.encoding, 0);
    }
    frontier_.push_back({std::move(init), id, 0, false});
    while (!frontier_.empty()) {
      Item item = std::move(frontier_.back());
      frontier_.pop_back();
      const bool ample = expand(item.cfg);
      if (!item.revisit) {
        st_.states += 1;
        if (ample) st_.por_reduced += 1;
        if (steps_.empty()) {
          (item.cfg.all_done(ts_.system()) ? st_.finals : st_.blocked) += 1;
        }
        st_.transitions += steps_.size();
        timed(st_.push, [&] {
          copies_.clear();
          for (const auto& step : steps_.steps()) copies_.push(step.after);
        });
        if (hook_) {
          timed(st_.visitor, [&] { hook_(item.cfg, steps_.steps(), st_); });
        }
      }
      if (reduced) {
        process_reduced(item, !item.revisit);
      } else {
        process_plain(item);
      }
    }
    st_.visited_bytes = reduced ? masked_.bytes() +
                                      masks_.capacity() * sizeof(std::uint64_t)
                        : opts_.traced ? sink_.bytes()
                                       : plain_.bytes();
    st_.wall_s = since(t0);
    return st_;
  }

 private:
  struct Item {
    Config cfg;
    std::uint64_t id = ShardedVisitedSet::kNoState;
    std::uint64_t sleep = 0;
    bool revisit = false;
  };

  void encode(const Config& cfg) {
    scratch_.clear();
    timed(st_.encode, [&] { cfg.encode_into(scratch_); });
    st_.words += scratch_.size();
  }

  void compute_key(const Config& cfg) {
    timed(st_.key, [&] { abs_->key(cfg, key_); });
    st_.perms += key_.perms.size();
  }

  ShardedVisitedSet::MaskedInsert masked_insert(
      std::span<const std::uint64_t> enc, std::uint64_t mask) {
    rec_.add(enc);
    return timed(st_.insert, [&]() -> ShardedVisitedSet::MaskedInsert {
      const auto ided = masked_.resolve_ided(enc);
      if (ided.inserted) {
        masks_.push_back(mask);
        return {true, true, mask};
      }
      std::uint64_t& stored = masks_[ided.id];
      const std::uint64_t meet = stored & mask;
      if (meet == stored) return {false, false, stored};
      stored = meet;
      return {false, true, meet};
    });
  }

  void fill(const Config& cfg, std::optional<lang::ThreadId> t,
            StepBuffer& out, bool labels) {
    timed(st_.succ, [&] {
      if (t) {
        ts_.thread_successors_into(cfg, *t, out, labels);
      } else {
        ts_.successors_into(cfg, out, labels);
      }
    });
    st_.steps_made += out.size();
  }

  /// engine::expand_steps without local-step fusion.
  bool expand(const Config& cfg) {
    if (opts_.por) {
      if (const auto t = timed(st_.ample, [&] { return ts_.ample_thread(cfg); })) {
        fill(cfg, t, steps_, opts_.want_labels);
        if (!steps_.empty()) return true;
      }
    }
    fill(cfg, std::nullopt, steps_, opts_.want_labels);
    return false;
  }

  /// engine::chain_thread, with the ample_thread call timed.
  std::optional<lang::ThreadId> chain_thread(const Config& cfg) {
    const auto t = timed(st_.ample, [&] { return ts_.ample_thread(cfg); });
    if (!t) return std::nullopt;
    switch (ts_.system().code(*t)[cfg.pc[*t]].kind) {
      case lang::IKind::Assign:
      case lang::IKind::Branch:
      case lang::IKind::Jump:
        return t;
      default:
        return std::nullopt;
    }
  }

  std::uint64_t collapse(Config& cfg) {
    std::uint64_t walked = 0;
    while (const auto t = chain_thread(cfg)) {
      fill(cfg, t, chain_steps_, /*labels=*/false);
      cfg = std::move(chain_steps_.steps()[0].after);
      walked += 1;
    }
    return walked;
  }

  void process_plain(Item& item) {
    for (auto& step : steps_.steps()) {
      Config after = std::move(step.after);
      if (opts_.traced) {
        encode(after);
        rec_.add(scratch_);
        const auto ins = timed(st_.insert, [&] {
          return sink_.insert_traced(scratch_, item.id, step.thread,
                                     std::move(step.label));
        });
        if (ins.inserted) frontier_.push_back({std::move(after), ins.id, 0, false});
        continue;
      }
      if (collapse_) st_.chained += collapse(after);
      encode(after);
      rec_.add(scratch_);
      if (timed(st_.insert, [&] { return plain_.insert(scratch_); })) {
        frontier_.push_back({std::move(after), ShardedVisitedSet::kNoState, 0,
                             false});
      }
    }
  }

  /// engine's process_steps_reduced, untraced.
  void process_reduced(const Item& item, bool count_stats) {
    auto steps = steps_.steps();
    std::uint64_t mask = 0;
    if (opts_.sleep) {
      std::uint64_t enabled = 0;
      for (const auto& step : steps) {
        if ((enabled >> step.thread & 1ULL) == 0) {
          meta_[step.thread] = step.meta;
          enabled |= 1ULL << step.thread;
        }
      }
      mask = item.sleep & enabled;
    }
    std::uint64_t earlier = 0;
    std::size_t i = 0;
    while (i < steps.size()) {
      const lang::ThreadId t = steps[i].thread;
      std::size_t j = i;
      while (j < steps.size() && steps[j].thread == t) ++j;
      if (opts_.sleep && (mask >> t & 1ULL) != 0) {
        i = j;
        continue;
      }
      std::uint64_t child_sleep = 0;
      if (opts_.sleep) {
        std::uint64_t base = (mask | earlier) & ~(1ULL << t);
        while (base != 0) {
          const auto u = static_cast<unsigned>(std::countr_zero(base));
          base &= base - 1;
          if (engine::steps_independent(meta_[u], meta_[t])) {
            child_sleep |= 1ULL << u;
          }
        }
        earlier |= 1ULL << t;
      }
      for (std::size_t k = i; k < j; ++k) {
        Config after = std::move(steps[k].after);
        if (collapse_) {
          const std::uint64_t walked = collapse(after);
          if (count_stats) st_.chained += walked;
        }
        compute_key(after);
        std::uint64_t cmask = 0;
        if (opts_.sleep) {
          cmask = key_.complete ? engine::mask_to_abstract(child_sleep, key_) : 0;
        }
        const auto r = masked_insert(key_.encoding, cmask);
        if (!r.inserted && !r.expand) continue;
        const std::uint64_t fmask =
            opts_.sleep ? engine::mask_from_abstract(r.mask, key_) : 0;
        frontier_.push_back({std::move(after), ShardedVisitedSet::kNoState,
                             fmask, !r.inserted});
      }
      i = j;
    }
  }

  const engine::TransitionSystem& ts_;
  const engine::StateAbstraction* abs_;
  MirrorOptions opts_;
  StateHook hook_;
  Recorded& rec_;
  bool collapse_ = false;
  MirrorStats st_;
  std::vector<Item> frontier_;
  StepBuffer steps_, copies_, chain_steps_;
  std::vector<std::uint64_t> scratch_;
  engine::AbstractKey key_;
  std::array<lang::StepMeta, 64> meta_{};
  support::InternedWordSet plain_;
  support::InternedWordSet masked_;
  std::vector<std::uint64_t> masks_;
  ShardedVisitedSet sink_;
};

/// The recorded inserts replayed into one ShardedVisitedSet from four
/// workers (each takes every fourth call), each call timed like the
/// mirror's: summed seconds in insert, shard-lock waits included, scaled to
/// the full call count if recording was capped.
double replay_t4(const Recorded& rec) {
  constexpr unsigned kWorkers = 4;
  const std::size_t n = rec.ends.size();
  if (n == 0) return 0;
  ShardedVisitedSet set;
  std::vector<Span> busy(kWorkers);
  std::vector<std::exception_ptr> errors(kWorkers);
  std::vector<std::jthread> pool;
  for (unsigned w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      try {
        std::vector<std::uint64_t> enc;
        for (std::size_t i = w; i < n; i += kWorkers) {
          rec.get(i, enc);
          timed(busy[w], [&] {
            switch (rec.kind) {
              case InsertKind::Plain:
                set.insert(enc);
                break;
              case InsertKind::Masked:
                set.insert_masked(enc, 0);
                break;
              case InsertKind::Traced:
                set.insert_traced(enc, ShardedVisitedSet::kNoState, 0, {});
                break;
            }
          });
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  pool.clear();  // joins
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  double total = 0;
  for (const Span& b : busy) total += b.s;
  return total * static_cast<double>(rec.calls) / static_cast<double>(n);
}

/// og::check_outline's per-state obligations (validity + interference),
/// evaluated exactly as proof_outline.cpp does on a valid outline.
void evaluate_obligations(const lang::System& sys,
                          const og::ProofOutline& outline, const Config& cfg,
                          std::span<const Step> steps, MirrorStats& st) {
  std::uint64_t checked = 1;
  std::uint64_t failed = 0;
  if (!outline.global_invariant().eval(sys, cfg)) failed += 1;
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    checked += 1;
    if (!outline.at(t, cfg.pc[t]).eval(sys, cfg)) failed += 1;
  }
  for (const auto& step : steps) {
    for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
      if (t == step.thread) continue;
      for (std::uint32_t pc = 0; pc <= outline.terminal_pc(t); ++pc) {
        const auto& ann = outline.at(t, pc);
        checked += 1;
        if (ann.eval(sys, cfg) && !ann.eval(sys, step.after)) failed += 1;
      }
    }
  }
  st.obligations += checked;
  st.failed_obligations += failed;
}

// --- one pass ---------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// Constructions per engine.setup_s sample (one takes microseconds).
constexpr int kSetupReps = 20;

struct Args {
  std::string mode;  ///< run | verify | refine
  bool por = false, symmetry = false, trace = false;
  std::vector<std::string> files;
  double seconds = 5;
};

/// Self-check failures of one pass (empty when the mirror matched).
std::vector<std::string> g_mismatches;

void expect_eq(const char* what, std::uint64_t mirror, std::uint64_t driver) {
  if (mirror == driver) return;
  g_mismatches.push_back(std::string(what) + ": mirror " +
                         std::to_string(mirror) + " != driver " +
                         std::to_string(driver));
}

/// Layer metrics every front end shares, from the summed mirror stats.
void mirror_metrics(const MirrorStats& m, const Recorded& rec, Metrics& out) {
  const double states = static_cast<double>(std::max<std::uint64_t>(1, m.states));
  const auto per = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  out["lang.successors_s"] = m.succ.s;
  out["lang.steps_per_state"] = static_cast<double>(m.steps_made) / states;
  out["lang.push_s"] = m.push.s;
  out["memsem.encode_s"] = m.encode.s;
  out["memsem.encodes_per_state"] = static_cast<double>(m.encode.calls) / states;
  out["memsem.words_per_state"] = per(static_cast<double>(m.words), m.encode.calls);
  out["engine.key_s"] = m.key.s;
  out["engine.keys_per_state"] = static_cast<double>(m.key.calls) / states;
  out["engine.perms_per_key"] = per(static_cast<double>(m.perms), m.key.calls);
  out["engine.ample_s"] = m.ample.s;
  out["engine.ample_ratio"] = static_cast<double>(m.por_reduced) / states;
  out["engine.chain_steps"] = static_cast<double>(m.chained);
  out["engine.insert_s"] = m.insert.s;
  out["engine.insert_s_t4"] = replay_t4(rec);
  out["engine.new_ratio"] = per(static_cast<double>(m.states), m.insert.calls);
  out["engine.bytes_per_state"] = static_cast<double>(m.visited_bytes) / states;
  out["mirror.states"] = static_cast<double>(m.states);
  out["mirror.transitions"] = static_cast<double>(m.transitions);
  out["trace.traced_s"] = m.wall_s;
}

template <typename F>
double time_of(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

Metrics pass_run(const Args& a) {
  Metrics out;
  std::optional<parser::ParsedProgram> prog;
  out["parser.parse_s"] = time_of([&] { prog.emplace(parser::parse_file(a.files[0])); });
  const lang::System& sys = prog->sys;

  // The driver's make_abstraction: the orbit quotient when it is
  // nontrivial, else the identity abstraction that carries the sleep masks.
  std::unique_ptr<engine::SystemTransitions> ts;
  std::unique_ptr<engine::StateAbstraction> abs;
  out["engine.setup_s"] = time_of([&] {
    for (int r = 0; r < kSetupReps; ++r) {
      ts = std::make_unique<engine::SystemTransitions>(sys);
      if (!a.symmetry) continue;
      abs = engine::make_symmetry_abstraction(sys);
      if (!abs->nontrivial()) abs = engine::make_concrete_abstraction();
    }
  }) / kSetupReps;

  engine::ReachOptions ropts;
  ropts.por = a.por;
  ropts.symmetry = a.symmetry;
  ropts.sleep_sets = a.symmetry;
  engine::ReachResult driver;
  out["trace.untraced_s"] = time_of([&] {
    driver = engine::visit_reachable(
        *ts, ropts, [](const Config&, std::uint64_t, std::span<const Step>) {
          return true;
        });
  });

  Recorded rec;
  const MirrorOptions mo{a.por, a.symmetry, false, false};
  const MirrorStats m = Mirror(*ts, abs.get(), mo, {}, rec).run();
  mirror_metrics(m, rec, out);
  expect_eq("states", m.states, driver.stats.states);
  expect_eq("finals", m.finals, driver.stats.finals);
  expect_eq("blocked", m.blocked, driver.stats.blocked);
  if (!mo.sleep) expect_eq("transitions", m.transitions, driver.stats.transitions);

  explore::ExploreOptions eopts;
  eopts.por = a.por;
  eopts.symmetry = a.symmetry;
  explore::ExploreResult res;
  const double explore_s = time_of([&] { res = explore::explore(sys, eopts); });
  expect_eq("explore states", res.stats.states, driver.stats.states);
  out["explore.visitor_s"] = explore_s - out["trace.untraced_s"];
  return out;
}

Metrics pass_verify(const Args& a) {
  Metrics out;
  std::optional<parser::ParsedProgram> prog;
  out["parser.parse_s"] = time_of([&] { prog.emplace(parser::parse_file(a.files[0])); });
  const lang::System& sys = prog->sys;
  if (!prog->outline) throw std::runtime_error(a.files[0] + " has no outline");
  const og::ProofOutline& outline = *prog->outline;

  std::unique_ptr<engine::SystemTransitions> ts;
  out["engine.setup_s"] = time_of([&] {
    for (int r = 0; r < kSetupReps; ++r) {
      ts = std::make_unique<engine::SystemTransitions>(sys);
    }
  }) / kSetupReps;

  // The driver exactly as check_outline configures it, with an empty visitor.
  const auto empty_run = [&](bool traced) {
    ShardedVisitedSet sink;
    engine::ReachOptions ropts;
    ropts.want_labels = true;
    ropts.trace = traced ? &sink : nullptr;
    return engine::visit_reachable(
        *ts, ropts, [](const Config&, std::uint64_t, std::span<const Step>) {
          return true;
        });
  };
  engine::ReachResult driver;
  const double driver_s = time_of([&] { driver = empty_run(a.trace); });
  const engine::ReachResult untraced_driver = empty_run(false);

  Recorded rec;
  MirrorOptions mo{false, false, true, a.trace};
  const MirrorStats m =
      Mirror(*ts, nullptr, mo,
             [&](const Config& cfg, std::span<const Step> steps, MirrorStats& st) {
               evaluate_obligations(sys, outline, cfg, steps, st);
             },
             rec)
          .run();
  mirror_metrics(m, rec, out);
  expect_eq("states", m.states, driver.stats.states);
  expect_eq("transitions", m.transitions, driver.stats.transitions);
  expect_eq("finals", m.finals, driver.stats.finals);
  expect_eq("failed obligations", m.failed_obligations, 0);

  og::OutlineCheckOptions traced_opts;
  traced_opts.track_traces = a.trace;
  og::OutlineCheckResult res;
  const double check_s =
      time_of([&] { res = og::check_outline(sys, outline, traced_opts); });
  og::OutlineCheckOptions plain_opts;
  og::OutlineCheckResult plain_res;
  const double plain_s =
      time_of([&] { plain_res = og::check_outline(sys, outline, plain_opts); });
  expect_eq("obligations", m.obligations, res.obligations_checked);
  expect_eq("untraced obligations", plain_res.obligations_checked,
            res.obligations_checked);
  expect_eq("outline valid", res.valid ? 1 : 0, 1);

  const double states = static_cast<double>(std::max<std::uint64_t>(1, m.states));
  // The mirror evaluates the same obligations, so the untimed comparison
  // is the whole checker.
  out["trace.untraced_s"] = check_s;
  out["og.visitor_s"] = check_s - driver_s;
  out["og.obligations_per_state"] =
      static_cast<double>(res.obligations_checked) / states;
  out["og.eval_s"] = m.visitor.s;
  out["witness.trace_s"] = a.trace ? check_s - plain_s : 0.0;
  out["witness.trace_bytes_per_state"] =
      (static_cast<double>(driver.stats.visited_bytes) -
       static_cast<double>(untraced_driver.stats.visited_bytes)) /
      states;
  return out;
}

Metrics pass_refine(const Args& a) {
  Metrics out;
  std::optional<parser::ParsedProgram> abs_prog, conc_prog;
  out["parser.parse_s"] = time_of([&] {
    abs_prog.emplace(parser::parse_file(a.files[0]));
    conc_prog.emplace(parser::parse_file(a.files[1]));
  });
  const lang::System& abs_sys = abs_prog->sys;
  const lang::System& conc_sys = conc_prog->sys;

  std::unique_ptr<engine::SystemTransitions> abs_ts, conc_ts;
  out["engine.setup_s"] = time_of([&] {
    for (int r = 0; r < kSetupReps; ++r) {
      abs_ts = std::make_unique<engine::SystemTransitions>(
          abs_sys, engine::AmplePolicy::ClientInvisible);
      conc_ts = std::make_unique<engine::SystemTransitions>(
          conc_sys, engine::AmplePolicy::ClientInvisible);
    }
  }) / kSetupReps;

  // build_graph phase 1 is the driver with default options over the
  // ClientInvisible transition system; phase 2 re-expands every state.
  std::uint64_t driver_states = 0;
  out["trace.untraced_s"] = time_of([&] {
    for (const auto* ts : {abs_ts.get(), conc_ts.get()}) {
      driver_states += engine::visit_reachable(
                           *ts, engine::ReachOptions{},
                           [](const Config&, std::uint64_t,
                              std::span<const Step>) { return true; })
                           .stats.states;
    }
  });

  Recorded rec;
  MirrorStats m;
  for (const auto* ts : {abs_ts.get(), conc_ts.get()}) {
    m.add(Mirror(*ts, nullptr, MirrorOptions{}, {}, rec).run());
  }
  mirror_metrics(m, rec, out);
  expect_eq("states", m.states, driver_states);

  // The two checkers each build both graphs: abstract without labels,
  // concrete with (refinement.cpp graph_options).
  refinement::GraphOptions abs_g, conc_g;
  conc_g.want_labels = true;
  double graph_s = 0;
  std::uint64_t builds = 0, built = 0, edges = 0;
  const auto build_pair = [&] {
    return time_of([&] {
      const std::array<std::pair<const lang::System*,
                                 const refinement::GraphOptions*>, 2>
          sides{{{&abs_sys, &abs_g}, {&conc_sys, &conc_g}}};
      for (const auto& [sys, g] : sides) {
        const auto graph = refinement::build_graph(*sys, *g);
        builds += 1;
        built += graph.num_states();
        edges += graph.num_edges();
      }
    });
  };
  const double sim_graphs = build_pair();
  refinement::SimulationResult sim;
  const double sim_s = time_of(
      [&] { sim = refinement::check_forward_simulation(abs_sys, conc_sys, {}); });
  const double inc_graphs = build_pair();
  refinement::TraceInclusionResult inc;
  const double inc_s = time_of(
      [&] { inc = refinement::check_trace_inclusion(abs_sys, conc_sys, {}); });
  graph_s = sim_graphs + inc_graphs;
  expect_eq("graph states", built / 2, m.states);
  expect_eq("graph edges", edges / 2, m.transitions);
  expect_eq("simulation states", sim.abstract_states + sim.concrete_states,
            m.states);
  expect_eq("refines", sim.holds && inc.holds ? 1 : 0, 1);

  out["refinement.graph_s"] = graph_s;
  out["refinement.graph_builds"] = static_cast<double>(builds);
  out["refinement.graph_states_built"] = static_cast<double>(built);
  out["refinement.edges"] = static_cast<double>(edges);
  out["refinement.fixpoint_s"] = sim_s - sim_graphs;
  out["refinement.inclusion_s"] = inc_s - inc_graphs;
  return out;
}

/// Metrics every front end reports, zero where the layer does not run.
const char* const kAllMetrics[] = {
    "parser.parse_s", "engine.setup_s", "lang.successors_s",
    "lang.steps_per_state", "lang.push_s", "memsem.encode_s",
    "memsem.encodes_per_state", "memsem.words_per_state", "engine.key_s",
    "engine.keys_per_state", "engine.perms_per_key", "engine.ample_s",
    "engine.ample_ratio", "engine.chain_steps", "engine.insert_s",
    "engine.insert_s_t4", "engine.new_ratio", "engine.bytes_per_state",
    "explore.visitor_s", "og.visitor_s", "og.obligations_per_state",
    "og.eval_s", "witness.trace_s", "witness.trace_bytes_per_state",
    "refinement.graph_s", "refinement.graph_builds",
    "refinement.graph_states_built", "refinement.edges",
    "refinement.fixpoint_s", "refinement.inclusion_s", "mirror.states",
    "mirror.transitions", "trace.traced_s", "trace.untraced_s",
    "trace.overhead_s"};

/// Count metrics (not times) must repeat exactly from pass to pass.
bool is_count(std::string_view name) {
  return !name.ends_with("_s") && !name.ends_with("_s_t4");
}

int usage() {
  std::cerr << "usage: rc11-layers [--seconds S] run [--por] [--symmetry] P\n"
               "       rc11-layers [--seconds S] verify [--trace] P\n"
               "       rc11-layers [--seconds S] refine ABSTRACT CONCRETE\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seconds" && i + 1 < argc) {
      a.seconds = std::stod(argv[++i]);
    } else if (arg == "--por") {
      a.por = true;
    } else if (arg == "--symmetry") {
      a.symmetry = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (a.mode.empty()) {
      a.mode = arg;
    } else {
      a.files.push_back(arg);
    }
  }
  const bool ok = (a.mode == "run" && a.files.size() == 1) ||
                  (a.mode == "verify" && a.files.size() == 1) ||
                  (a.mode == "refine" && a.files.size() == 2);
  if (!ok) return usage();

  std::map<std::string, std::vector<double>> samples;
  try {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(a.seconds);
    do {
      Metrics m = a.mode == "run"      ? pass_run(a)
                  : a.mode == "verify" ? pass_verify(a)
                                       : pass_refine(a);
      m["trace.overhead_s"] = m["trace.traced_s"] - m["trace.untraced_s"];
      for (const char* name : kAllMetrics) samples[name].push_back(m[name]);
    } while (Clock::now() < deadline);
  } catch (const std::exception& e) {
    std::cerr << "rc11-layers: " << e.what() << "\n";
    return 1;
  }

  std::vector<double> medians;
  for (const char* name : kAllMetrics) {
    auto v = samples[name];
    if (is_count(name) &&
        std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) != v.end()) {
      g_mismatches.push_back(std::string(name) + " differs between passes");
    }
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    medians.push_back(*mid);
  }
  std::printf("{\"passes\": %zu, \"self_check\": %s, \"metrics\": {",
              samples.begin()->second.size(),
              g_mismatches.empty() ? "true" : "false");
  for (std::size_t i = 0; i < medians.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i == 0 ? "" : ", ", kAllMetrics[i],
                medians[i]);
  }
  std::printf("}}\n");
  for (const auto& msg : g_mismatches) {
    std::cerr << "rc11-layers: self-check failed: " << msg << "\n";
  }
  return g_mismatches.empty() ? 0 : 2;
}
