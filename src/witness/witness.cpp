#include "witness/witness.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "support/text.hpp"
#include "witness/json.hpp"

namespace rc11::witness {

/// Digests travel as fixed-width hex strings: JSON numbers cannot hold a full
/// uint64 portably, and the string form is greppable against renderer output.
std::string digest_to_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(digest >> shift) & 0xF]);
  }
  return out;
}

std::uint64_t digest_from_hex(const std::string& text) {
  support::require(text.size() >= 3 && text.size() <= 18 && text[0] == '0' &&
                       (text[1] == 'x' || text[1] == 'X'),
                   "witness: malformed digest '", text, "'");
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  support::require(ec == std::errc{} && ptr == text.data() + text.size(),
                   "witness: malformed digest '", text, "'");
  return value;
}

namespace {

std::string short_digest(std::uint64_t digest) {
  return digest_to_hex(digest).substr(0, 8);  // "0x" + 6 nibbles
}

}  // namespace

std::uint64_t config_digest(const lang::Config& cfg) {
  const std::vector<std::uint64_t> words = cfg.encode();
  return support::hash_words(words);
}

std::string to_json(const Witness& w) {
  Json doc = Json::object();
  doc.set("format", Json::string("rc11-witness"));
  doc.set("version", Json::integer(w.version));
  doc.set("kind", Json::string(w.kind));
  doc.set("source", Json::string(w.source));
  doc.set("what", Json::string(w.what));
  doc.set("initial_digest", Json::string(digest_to_hex(w.initial_digest)));
  Json steps = Json::array();
  for (const WitnessStep& s : w.steps) {
    Json step = Json::object();
    if (s.thread == kAnyThread) {
      step.set("thread", Json::null());
    } else {
      step.set("thread", Json::integer(static_cast<std::int64_t>(s.thread)));
    }
    step.set("label", Json::string(s.label));
    step.set("after_digest", Json::string(digest_to_hex(s.after_digest)));
    steps.push(std::move(step));
  }
  doc.set("steps", std::move(steps));
  doc.set("state_dump", Json::string(w.state_dump));
  return doc.dump();
}

Witness from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  support::require(doc.is(Json::Kind::Object),
                   "witness: document is not a JSON object");
  support::require(doc.at("format").as_string() == "rc11-witness",
                   "witness: not an rc11-witness document");
  Witness w;
  w.version = doc.at("version").as_int();
  support::require(w.version == kFormatVersion,
                   "witness: unsupported format version ", w.version,
                   " (this build reads version ", kFormatVersion, ")");
  w.kind = doc.at("kind").as_string();
  support::require(
      w.kind == "invariant" || w.kind == "outline" ||
          w.kind == "refinement" || w.kind == "race",
      "witness: unknown kind '", w.kind, "'");
  w.source = doc.at("source").as_string();
  w.what = doc.at("what").as_string();
  w.initial_digest = digest_from_hex(doc.at("initial_digest").as_string());
  w.state_dump = doc.at("state_dump").as_string();
  for (const Json& step : doc.at("steps").items()) {
    support::require(step.is(Json::Kind::Object),
                     "witness: step is not an object");
    WitnessStep s;
    const Json& thread = step.at("thread");
    if (!thread.is(Json::Kind::Null)) {
      const std::int64_t t = thread.as_int();
      support::require(t >= 0 && t < UINT32_MAX, "witness: bad thread id ", t);
      s.thread = static_cast<std::uint32_t>(t);
    }
    s.label = step.at("label").as_string();
    s.after_digest = digest_from_hex(step.at("after_digest").as_string());
    w.steps.push_back(std::move(s));
  }
  return w;
}

void save(const Witness& w, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  support::require(out.good(), "witness: cannot open '", path, "' for writing");
  out << to_json(w);
  out.close();
  support::require(out.good(), "witness: write to '", path, "' failed");
}

Witness load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  support::require(in.good(), "witness: cannot open '", path, "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  support::require(!in.bad(), "witness: read from '", path, "' failed");
  return from_json(buf.str());
}

ReplayResult replay(const lang::System& sys, const Witness& w) {
  ReplayResult result;
  lang::Config cur = lang::initial_config(sys);
  const std::uint64_t init = config_digest(cur);
  if (init != w.initial_digest) {
    result.error = support::concat(
        "initial state mismatch: witness recorded ",
        digest_to_hex(w.initial_digest), " but the program's initial state is ",
        digest_to_hex(init), " (wrong program or semantics options?)");
    return result;
  }
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const WitnessStep& step = w.steps[i];
    const std::vector<lang::Step> succs =
        lang::successors(sys, cur, /*want_labels=*/true);
    const lang::Step* match = nullptr;
    for (const lang::Step& s : succs) {
      if (step.thread != kAnyThread && s.thread != step.thread) continue;
      if (config_digest(s.after) != step.after_digest) continue;
      match = &s;
      break;
    }
    if (match == nullptr) {
      std::string enabled;
      for (const lang::Step& s : succs) {
        enabled += support::concat("\n    thread ", s.thread, ": ", s.label,
                                   " -> ", digest_to_hex(config_digest(s.after)));
      }
      result.error = support::concat(
          "step ", i + 1, "/", w.steps.size(), " (thread ",
          step.thread == kAnyThread ? std::string("any")
                                    : std::to_string(step.thread),
          ", \"", step.label, "\") has no matching enabled transition to ",
          digest_to_hex(step.after_digest), "; enabled here:",
          succs.empty() ? "\n    (none — state is final or blocked)" : enabled);
      return result;
    }
    cur = match->after;
    result.steps_applied = i + 1;
  }
  result.ok = true;
  result.final_config = std::move(cur);
  return result;
}

namespace {

/// True iff thread t's next instruction is local (deterministic, no memory
/// effect): the local-step fusion minimize() restricts its re-search with.
bool next_instr_is_local(const lang::System& sys, const lang::Config& cfg,
                         lang::ThreadId t) {
  const auto& code = sys.code(t);
  if (cfg.pc[t] >= code.size()) return false;
  switch (code[cfg.pc[t]].kind) {
    case lang::IKind::Assign:
    case lang::IKind::Branch:
    case lang::IKind::Jump:
      return true;
    default:
      return false;
  }
}

/// First thread whose next instruction is local, or nullopt.
std::optional<lang::ThreadId> local_step_thread(const lang::System& sys,
                                                const lang::Config& cfg) {
  for (lang::ThreadId t = 0; t < sys.num_threads(); ++t) {
    if (next_instr_is_local(sys, cfg, t)) return t;
  }
  return std::nullopt;
}

/// BFS for a shortest path from the initial configuration to `target_digest`,
/// expanding only states whose digest is in `touched` (the subgraph induced
/// by the witness's own states).  When `fuse` is set, states with an enabled
/// local step expand only that thread — a sound reduction, but the reduced
/// graph may not contain the target inside `touched`, hence the caller's
/// fallback.  Returns nullopt when the target is unreachable in the
/// restricted graph.
std::optional<std::vector<WitnessStep>> restricted_bfs(
    const lang::System& sys, const std::unordered_set<std::uint64_t>& touched,
    std::uint64_t target_digest, bool fuse) {
  struct Node {
    lang::Config cfg;
    std::size_t parent;  ///< index into nodes (self-index for the root)
    WitnessStep step;    ///< edge from parent (empty for the root)
  };
  std::vector<Node> nodes;
  nodes.push_back({lang::initial_config(sys), 0, {}});
  std::unordered_map<std::uint64_t, std::size_t> seen;
  seen.emplace(support::hash_words(nodes[0].cfg.encode()), 0);
  std::deque<std::size_t> frontier{0};

  const auto build_path = [&](std::size_t idx) {
    std::vector<WitnessStep> steps;
    while (nodes[idx].parent != idx) {
      steps.push_back(nodes[idx].step);
      idx = nodes[idx].parent;
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  };

  if (support::hash_words(nodes[0].cfg.encode()) == target_digest) {
    return std::vector<WitnessStep>{};
  }
  while (!frontier.empty()) {
    const std::size_t idx = frontier.front();
    frontier.pop_front();
    // Copy: nodes may reallocate while we push successors.
    const lang::Config cur = nodes[idx].cfg;
    const std::optional<lang::ThreadId> fused =
        fuse ? local_step_thread(sys, cur) : std::nullopt;
    const std::vector<lang::Step> succs =
        fused ? lang::thread_successors(sys, cur, *fused, /*want_labels=*/true)
              : lang::successors(sys, cur, /*want_labels=*/true);
    for (const lang::Step& s : succs) {
      const std::uint64_t digest = support::hash_words(s.after.encode());
      if (!touched.contains(digest)) continue;
      if (!seen.emplace(digest, nodes.size()).second) continue;
      nodes.push_back({s.after, idx, {s.thread, s.label, digest}});
      if (digest == target_digest) return build_path(nodes.size() - 1);
      frontier.push_back(nodes.size() - 1);
    }
  }
  return std::nullopt;
}

}  // namespace

Witness minimize(const lang::System& sys, const Witness& w) {
  if (w.steps.empty()) return w;
  // The input must be a real run (it supplies the touched-state set).
  const ReplayResult check = replay(sys, w);
  if (!check.ok) return w;

  std::unordered_set<std::uint64_t> touched;
  touched.insert(w.initial_digest);
  for (const WitnessStep& s : w.steps) touched.insert(s.after_digest);

  std::optional<std::vector<WitnessStep>> best =
      restricted_bfs(sys, touched, w.final_digest(), /*fuse=*/true);
  if (!best) {
    best = restricted_bfs(sys, touched, w.final_digest(), /*fuse=*/false);
  }
  // The original run lives inside the restricted graph, so the unfused search
  // cannot fail; guard anyway rather than crash on a digest-collision fluke.
  if (!best || best->size() >= w.steps.size()) return w;

  Witness out = w;
  out.steps = std::move(*best);
  return out;
}

std::string to_text(const Witness& w) {
  std::string out = support::concat(
      "witness (", w.kind, ", from ", w.source, ")\n",
      "violation: ", w.what, "\n",
      "run (", w.steps.size(), " steps from ", short_digest(w.initial_digest),
      "):\n");
  if (w.steps.empty()) {
    out += "  (violation at the initial state)\n";
  }
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const WitnessStep& s = w.steps[i];
    out += support::concat(
        "  ", i + 1, ". [T",
        s.thread == kAnyThread ? std::string("?") : std::to_string(s.thread),
        "] ", s.label, "  -> ", short_digest(s.after_digest), "\n");
  }
  if (!w.state_dump.empty()) {
    out += "violating state:\n";
    std::istringstream dump(w.state_dump);
    for (std::string line; std::getline(dump, line);) {
      out += support::concat("  ", line, "\n");
    }
  }
  return out;
}

std::string to_dot(const Witness& w) {
  std::string out = "digraph witness {\n  rankdir=LR;\n  node [shape=box];\n";
  out += support::concat("  s0 [label=\"init\\n",
                         support::dot_escape(short_digest(w.initial_digest)),
                         "\"];\n");
  for (std::size_t i = 0; i < w.steps.size(); ++i) {
    const WitnessStep& s = w.steps[i];
    const bool last = i + 1 == w.steps.size();
    out += support::concat(
        "  s", i + 1, " [label=\"",
        support::dot_escape(short_digest(s.after_digest)), "\"",
        last ? ", color=red, penwidth=2" : "", "];\n");
    const std::string thread_tag =
        s.thread == kAnyThread ? std::string("T?")
                               : support::concat("T", s.thread);
    out += support::concat("  s", i, " -> s", i + 1, " [label=\"", thread_tag,
                           ": ", support::dot_escape(s.label), "\"];\n");
  }
  if (!w.what.empty()) {
    out += support::concat("  violation [shape=note, color=red, label=\"",
                           support::dot_escape(w.what), "\"];\n");
    out += support::concat("  s", w.steps.size(),
                           " -> violation [style=dashed, color=red];\n");
  }
  out += "}\n";
  return out;
}

}  // namespace rc11::witness
