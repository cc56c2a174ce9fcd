// rc11lib/engine/budget.hpp
//
// Resource governance for the shared reachability engine: every exploration
// the library runs — the explorer, the outline checker, the refinement graph
// builder — goes through one cooperative budget layer that can stop it
// early, *honestly* (the result names exactly which limit was hit), and
// without losing the work done so far (engine/checkpoint.hpp serialises a
// stopped run; ReachOptions::resume continues it).
//
//   * Budget      — the three exploration limits: distinct-state cap,
//                   visited-set memory cap, wall-clock deadline.
//   * StopReason  — why a run ended; replaces the old lone `truncated` bit
//                   so callers can distinguish "state cap" from "deadline"
//                   from "Ctrl-C" (ReachResult keeps a truncated() compat
//                   accessor).
//   * CancelToken — cooperative cancellation: an async-signal-safe flag the
//                   CLI layer flips from SIGINT/SIGTERM handlers; workers
//                   poll it once per claimed state, drain, and the tools
//                   emit a partial report + exit 3 instead of dying.
//   * FaultPlan   — deterministic fault injection (env RC11_FAULT) used by
//                   the robustness tests and CI to prove every degradation
//                   path reports its StopReason and never deadlocks.
//   * BudgetEnforcer — the hot-path check itself, shared by the sequential
//                   and parallel drivers: one relaxed atomic increment and a
//                   couple of predictable branches per state; the expensive
//                   probes (steady_clock::now, visited-set bytes) run every
//                   kBudgetCheckInterval claims only.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string_view>
#include <thread>

namespace rc11::engine {

/// Why a reachability run ended.  Complete covers both full enumeration and
/// a visitor-requested stop (a visitor veto is a *decision*, not resource
/// exhaustion — e.g. stop-at-first-violation — and the results are as
/// complete as the visitor wanted them).  Every other value means the state
/// space was only partially enumerated and verdicts are a lower bound.
enum class StopReason : std::uint8_t {
  Complete,       ///< frontier drained (or the visitor asked to stop)
  StateCap,       ///< Budget::max_states distinct states were claimed
  MemCap,         ///< visited set exceeded Budget::max_visited_bytes
  Deadline,       ///< Budget::deadline_ms of wall clock elapsed
  Interrupted,    ///< CancelToken fired (SIGINT/SIGTERM or caller cancel)
  InjectedFault,  ///< a FaultPlan tripped (tests/CI only)
  /// The sampling strategy ran its full episode budget (engine/sample.hpp).
  /// This is how every sampling run that finds no violation ends: the
  /// coverage is a sample, so results are a lower bound by construction.
  EpisodeCap,
};

/// Stable lower-case names ("complete", "state-cap", ...) for reports,
/// JSON summaries and the checkpoint schema.
[[nodiscard]] const char* to_string(StopReason reason) noexcept;

/// Parses a to_string name back; throws support::Error on unknown input.
[[nodiscard]] StopReason stop_reason_from_string(std::string_view name);

/// The exploration limits.  max_states keeps its historic default; the two
/// new dimensions default to "unlimited" (0) so existing callers are
/// unaffected.
struct Budget {
  std::uint64_t max_states = 1'000'000;
  std::uint64_t max_visited_bytes = 0;  ///< 0 = no memory budget
  std::uint64_t deadline_ms = 0;        ///< 0 = no deadline
};

/// Cooperative cancellation flag.  cancel() is async-signal-safe (one
/// relaxed atomic store), so the CLI layer can call it straight from a
/// SIGINT handler; workers poll cancelled() once per claimed state.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token (tests reuse one token across runs).
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A deterministic fault to inject into the driver, for tests and the CI
/// robustness matrix.  Parsed from the RC11_FAULT environment variable as
/// exactly one spec, firing at the Nth visited-state claim (1-based, global
/// across worker threads):
///
///   RC11_FAULT=insert:N     fail the Nth visited-state claim (the insert
///                           that would admit the Nth state) -> InjectedFault
///   RC11_FAULT=stall:N:MS   stall the worker claiming the Nth state for MS
///                           milliseconds (proves peers keep draining and a
///                           later stop still terminates cleanly)
///   RC11_FAULT=mem:N        behave as if the memory budget tripped at the
///                           Nth claim -> MemCap
struct FaultPlan {
  enum class Kind : std::uint8_t { None, FailInsert, Stall, TripMem };
  Kind kind = Kind::None;
  std::uint64_t at_state = 0;  ///< 1-based claim index the fault fires at
  std::uint64_t stall_ms = 0;  ///< Stall only

  /// Parses one fault spec ("insert:N" / "stall:N:MS" / "mem:N"); throws
  /// support::Error on malformed input (including N == 0).
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// FaultPlan::parse(getenv("RC11_FAULT")), or an unarmed plan when the
  /// variable is unset or empty.
  [[nodiscard]] static FaultPlan from_env();
};

/// Claims between the expensive probes (clock + visited bytes).  Small
/// enough that a tiny memory budget trips within the first few dozen states
/// (the truncation-exactness tests rely on this), large enough that the
/// probes stay off the hot path.
inline constexpr std::uint64_t kBudgetCheckInterval = 32;

/// Once a probe observes the deadline this close (or the run starts with a
/// deadline this tight), every claim probes the clock: the every-32-claims
/// cadence alone would let one slow stretch of claims overshoot
/// --deadline-ms by an unbounded amount, so the enforcer escalates to
/// per-claim probing for the deadline's final window.  One clock read per
/// claim only inside that window — the hot path keeps its counter-only cost.
inline constexpr std::uint64_t kDeadlineUrgentWindowMs = 50;

/// An injected stall sleeps in slices of this size, probing the deadline
/// between slices, so even a stall much longer than --deadline-ms cannot
/// delay the Deadline decision past one slice.
inline constexpr std::uint64_t kStallSliceMs = 5;

/// The per-state gate both reachability drivers run: claim() is called once
/// per state about to be expanded and returns Complete to proceed or the
/// sticky reason to stop.  Thread-safe; the first non-Complete decision
/// wins, every later claim returns it immediately (so draining workers bail
/// per item without re-probing).
class BudgetEnforcer {
 public:
  /// `visited_bytes` is probed every kBudgetCheckInterval claims when a
  /// memory budget is set; it must be safe to call from any worker.
  BudgetEnforcer(const Budget& budget, const CancelToken* cancel,
                 const FaultPlan& fault,
                 std::function<std::uint64_t()> visited_bytes)
      : budget_(budget),
        cancel_(cancel),
        fault_(fault),
        visited_bytes_(std::move(visited_bytes)),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] StopReason claim() {
    // Sticky fast path: somebody already decided.
    StopReason sticky = reason_.load(std::memory_order_relaxed);
    if (sticky != StopReason::Complete) return sticky;

    const std::uint64_t n = claimed_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool probe = (n % kBudgetCheckInterval) == 0;
    // Deadline escalation: the first claim probes (so a deadline tighter
    // than the urgent window arms per-claim probing immediately), and once
    // any probe has seen the deadline inside the urgent window, every claim
    // probes — the counter cadence alone would overshoot --deadline-ms by
    // however long 31 claims happen to take.
    if (!probe && budget_.deadline_ms != 0 &&
        (n == 1 || urgent_.load(std::memory_order_relaxed))) {
      probe = true;
    }
    if (fault_.kind != FaultPlan::Kind::None && n == fault_.at_state) {
      switch (fault_.kind) {
        case FaultPlan::Kind::FailInsert:
          return decide(StopReason::InjectedFault);
        case FaultPlan::Kind::TripMem:
          return decide(StopReason::MemCap);
        case FaultPlan::Kind::Stall: {
          // Sleep in slices, honouring the deadline between slices: a stall
          // must not carry the run past --deadline-ms by more than one
          // slice.  "stall + deadline" therefore trips deterministically,
          // and promptly.
          std::uint64_t left = fault_.stall_ms;
          while (left > 0) {
            const std::uint64_t slice = left < kStallSliceMs ? left : kStallSliceMs;
            std::this_thread::sleep_for(std::chrono::milliseconds(slice));
            left -= slice;
            if (budget_.deadline_ms != 0 &&
                std::chrono::steady_clock::now() - start_ >=
                    std::chrono::milliseconds(budget_.deadline_ms)) {
              return decide(StopReason::Deadline);
            }
          }
          probe = true;
          break;
        }
        case FaultPlan::Kind::None:
          break;
      }
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return decide(StopReason::Interrupted);
    }
    if (n > budget_.max_states) return decide(StopReason::StateCap);
    if (probe) {
      if (budget_.deadline_ms != 0) {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        if (elapsed >= std::chrono::milliseconds(budget_.deadline_ms)) {
          return decide(StopReason::Deadline);
        }
        if (elapsed + std::chrono::milliseconds(kDeadlineUrgentWindowMs) >=
            std::chrono::milliseconds(budget_.deadline_ms)) {
          urgent_.store(true, std::memory_order_relaxed);
        }
      }
      if (budget_.max_visited_bytes != 0 &&
          visited_bytes_() > budget_.max_visited_bytes) {
        return decide(StopReason::MemCap);
      }
    }
    return StopReason::Complete;
  }

  /// Non-claiming gate for drivers whose progress is not measured in
  /// distinct states: the sampling engine revisits states for most of its
  /// steps, so it calls probe() periodically mid-episode to honour
  /// cancellation, the deadline and the memory budget without consuming a
  /// state claim (the state cap stays a distinct-state bound, enforced by
  /// claim() on first visits only).  Sticky like claim().
  [[nodiscard]] StopReason probe() {
    StopReason sticky = reason_.load(std::memory_order_relaxed);
    if (sticky != StopReason::Complete) return sticky;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return decide(StopReason::Interrupted);
    }
    if (budget_.deadline_ms != 0) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      if (elapsed >= std::chrono::milliseconds(budget_.deadline_ms)) {
        return decide(StopReason::Deadline);
      }
      if (elapsed + std::chrono::milliseconds(kDeadlineUrgentWindowMs) >=
          std::chrono::milliseconds(budget_.deadline_ms)) {
        urgent_.store(true, std::memory_order_relaxed);
      }
    }
    if (budget_.max_visited_bytes != 0 &&
        visited_bytes_() > budget_.max_visited_bytes) {
      return decide(StopReason::MemCap);
    }
    return StopReason::Complete;
  }

  /// The sticky decision (Complete while the run is still within budget).
  [[nodiscard]] StopReason reason() const noexcept {
    return reason_.load(std::memory_order_relaxed);
  }

 private:
  StopReason decide(StopReason reason) noexcept {
    StopReason expected = StopReason::Complete;
    // First decision wins; on a lost race return the winner so every worker
    // reports the same reason.
    if (reason_.compare_exchange_strong(expected, reason,
                                        std::memory_order_relaxed)) {
      return reason;
    }
    return expected;
  }

  Budget budget_;
  const CancelToken* cancel_;
  FaultPlan fault_;
  std::function<std::uint64_t()> visited_bytes_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> claimed_{0};
  std::atomic<StopReason> reason_{StopReason::Complete};
  /// Set once a probe sees the deadline within kDeadlineUrgentWindowMs;
  /// from then on every claim probes the clock.
  std::atomic<bool> urgent_{false};
};

}  // namespace rc11::engine
