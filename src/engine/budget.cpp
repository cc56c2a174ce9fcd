#include "engine/budget.hpp"

#include <cstdlib>
#include <string>

#include "support/diagnostics.hpp"

namespace rc11::engine {

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Complete:
      return "complete";
    case StopReason::StateCap:
      return "state-cap";
    case StopReason::MemCap:
      return "mem-cap";
    case StopReason::Deadline:
      return "deadline";
    case StopReason::Interrupted:
      return "interrupted";
    case StopReason::InjectedFault:
      return "injected-fault";
    case StopReason::EpisodeCap:
      return "episode-cap";
  }
  return "unknown";
}

StopReason stop_reason_from_string(std::string_view name) {
  for (StopReason r :
       {StopReason::Complete, StopReason::StateCap, StopReason::MemCap,
        StopReason::Deadline, StopReason::Interrupted,
        StopReason::InjectedFault, StopReason::EpisodeCap}) {
    if (name == to_string(r)) return r;
  }
  support::fail("unknown stop reason '", std::string(name), "'");
}

namespace {

// Parses a strictly positive decimal count; the whole of `text` must be
// digits.
std::uint64_t parse_count(std::string_view text, std::string_view what,
                          std::string_view spec) {
  support::require(!text.empty(),
                   "RC11_FAULT '", std::string(spec), "': missing ", what);
  std::uint64_t value = 0;
  for (char c : text) {
    support::require(c >= '0' && c <= '9', "RC11_FAULT '", std::string(spec),
                     "': ", what, " must be a decimal number, got '",
                     std::string(text), "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  support::require(value > 0, "RC11_FAULT '", std::string(spec), "': ", what,
                   " must be >= 1 (claim indices are 1-based)");
  return value;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  using Kind = FaultPlan::Kind;
  const std::size_t colon = spec.find(':');
  support::require(colon != std::string_view::npos,
                   "RC11_FAULT '", std::string(spec),
                   "': expected insert:N, stall:N:MS or mem:N");
  const std::string_view kind = spec.substr(0, colon);
  const std::string_view rest = spec.substr(colon + 1);

  FaultPlan plan;
  if (kind == "insert") {
    plan.kind = Kind::FailInsert;
    plan.at_state = parse_count(rest, "state index", spec);
  } else if (kind == "mem") {
    plan.kind = Kind::TripMem;
    plan.at_state = parse_count(rest, "state index", spec);
  } else if (kind == "stall") {
    const std::size_t colon2 = rest.find(':');
    support::require(colon2 != std::string_view::npos,
                     "RC11_FAULT '", std::string(spec),
                     "': stall needs both a state index and a duration "
                     "(stall:N:MS)");
    plan.kind = Kind::Stall;
    plan.at_state = parse_count(rest.substr(0, colon2), "state index", spec);
    plan.stall_ms =
        parse_count(rest.substr(colon2 + 1), "stall duration (ms)", spec);
  } else {
    support::fail("RC11_FAULT '", std::string(spec), "': unknown fault kind '",
                  std::string(kind), "' (expected insert, stall or mem)");
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("RC11_FAULT");
  if (spec == nullptr || *spec == '\0') return {};
  return parse(spec);
}

}  // namespace rc11::engine
