#include "engine/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"
#include "witness/json.hpp"
#include "witness/witness.hpp"

namespace rc11::engine {

using witness::Json;

Checkpoint make_checkpoint(const ShardedVisitedSet& sink,
                           const ExploreStats& stats, StopReason stop,
                           const Reduction& reduction) {
  const auto snap = sink.snapshot();
  support::require(!snap.empty(),
                   "cannot checkpoint a run with no interned states");

  // snapshot() returns shard order, which interleaves generations; the
  // schema wants parents strictly before children so restore_states can run
  // a single forward pass.  The parent links form a forest rooted at the
  // initial state, so a BFS over the child lists yields such an order.
  std::unordered_map<std::uint64_t, std::size_t> index_of_id;
  index_of_id.reserve(snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) index_of_id.emplace(snap[i].id, i);

  std::vector<std::vector<std::size_t>> children(snap.size());
  std::vector<std::size_t> order;
  order.reserve(snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (snap[i].parent == ShardedVisitedSet::kNoState) {
      support::require(order.empty(),
                       "cannot checkpoint: trace sink has multiple roots");
      order.push_back(i);
    } else {
      const auto it = index_of_id.find(snap[i].parent);
      RC11_REQUIRE(it != index_of_id.end(),
                   "trace sink parent link points to an unknown state");
      children[it->second].push_back(i);
    }
  }
  support::require(!order.empty(),
                   "cannot checkpoint: trace sink has no root state");
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (std::size_t child : children[order[head]]) order.push_back(child);
  }
  RC11_REQUIRE(order.size() == snap.size(),
               "trace sink parent links do not form a rooted forest");

  std::vector<std::size_t> position(snap.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) position[order[pos]] = pos;

  Checkpoint ckpt;
  ckpt.reduction = reduction;
  ckpt.stop = stop;
  ckpt.stats = stats;
  ckpt.states.reserve(snap.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto& entry = snap[order[pos]];
    Checkpoint::State state;
    state.parent =
        entry.parent == ShardedVisitedSet::kNoState
            ? -1
            : static_cast<std::int64_t>(position[index_of_id.at(entry.parent)]);
    state.thread = entry.thread;
    state.label = entry.label;
    state.enqueued = entry.enqueued;
    state.encoding = entry.encoding;
    ckpt.states.push_back(std::move(state));
  }
  return ckpt;
}

void recorded_run(const ShardedVisitedSet& sink, std::uint64_t id,
                  std::vector<std::string>& labels, witness::Witness& w) {
  const auto edges = sink.path_to(id);
  std::vector<std::uint64_t> enc;
  sink.decode_state(edges.empty() ? id : edges.front().parent, enc);
  w.initial_digest = support::hash_words(enc);
  labels.reserve(labels.size() + edges.size() + 2);
  labels.emplace_back("init");
  w.steps.reserve(w.steps.size() + edges.size() + 1);
  for (const auto& e : edges) {
    labels.push_back(e.label);
    enc.clear();
    sink.decode_state(e.state, enc);
    w.steps.push_back({e.thread, e.label, support::hash_words(enc)});
  }
}

namespace {

Json stats_to_json(const ExploreStats& stats) {
  Json out = Json::object();
  for (const StatCounter& c : kStatCounters) {
    if (c.checkpoint != InCheckpoint::Omitted) {
      out.set(c.key, Json::integer(static_cast<std::int64_t>(stats.*c.member)));
    }
  }
  return out;
}

ExploreStats stats_from_json(const Json& doc) {
  ExploreStats stats;
  // Optional counters postdate the version-1 schema; absent means a
  // checkpoint from a build without them (equivalently: zero).
  for (const StatCounter& c : kStatCounters) {
    if (c.checkpoint == InCheckpoint::Required ||
        (c.checkpoint == InCheckpoint::Optional && doc.has(c.key))) {
      stats.*c.member = static_cast<std::uint64_t>(doc.at(c.key).as_int());
    }
  }
  return stats;
}

}  // namespace

std::string to_json(const Checkpoint& ckpt) {
  Json doc = Json::object();
  doc.set("format", Json::string("rc11-checkpoint"));
  doc.set("version", Json::integer(ckpt.version));
  doc.set("por", Json::boolean(ckpt.reduction.por));
  doc.set("symmetry", Json::boolean(ckpt.reduction.symmetry));
  doc.set("rf_quotient", Json::boolean(ckpt.reduction.rf_quotient));
  doc.set("stop", Json::string(to_string(ckpt.stop)));
  doc.set("stats", stats_to_json(ckpt.stats));
  Json states = Json::array();
  for (const auto& state : ckpt.states) {
    Json entry = Json::object();
    entry.set("parent", Json::integer(state.parent));
    entry.set("thread",
              Json::integer(static_cast<std::int64_t>(state.thread)));
    entry.set("label", Json::string(state.label));
    entry.set("enqueued", Json::boolean(state.enqueued));
    Json words = Json::array();
    for (std::uint64_t word : state.encoding) {
      words.push(Json::string(witness::digest_to_hex(word)));
    }
    entry.set("encoding", std::move(words));
    states.push(std::move(entry));
  }
  doc.set("states", std::move(states));
  return doc.dump();
}

Checkpoint from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  support::require(
      doc.has("format") && doc.at("format").as_string() == "rc11-checkpoint",
      "checkpoint: not an rc11-checkpoint document");
  Checkpoint ckpt;
  ckpt.version = doc.at("version").as_int();
  support::require(ckpt.version == kCheckpointFormatVersion,
                   "checkpoint: unsupported version ", ckpt.version,
                   " (this build reads version ", kCheckpointFormatVersion,
                   ")");
  ckpt.reduction.por = doc.at("por").as_bool();
  // Absent in pre-symmetry version-1 files; those runs were unquotiented.
  ckpt.reduction.symmetry =
      doc.has("symmetry") && doc.at("symmetry").as_bool();
  // Same back-compat rule for the execution-graph quotient.
  ckpt.reduction.rf_quotient =
      doc.has("rf_quotient") && doc.at("rf_quotient").as_bool();
  ckpt.stop = stop_reason_from_string(doc.at("stop").as_string());
  ckpt.stats = stats_from_json(doc.at("stats"));
  const auto& states = doc.at("states").items();
  support::require(!states.empty(), "checkpoint: empty state list");
  ckpt.states.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const Json& entry = states[i];
    Checkpoint::State state;
    state.parent = entry.at("parent").as_int();
    support::require(
        state.parent >= -1 &&
            state.parent < static_cast<std::int64_t>(i),
        "checkpoint: state ", i,
        " has parent ", state.parent,
        " (parents must precede children; -1 marks the root)");
    support::require((state.parent == -1) == (i == 0),
                     "checkpoint: exactly the first state must be the root");
    const std::int64_t thread = entry.at("thread").as_int();
    support::require(thread >= 0 && thread <= UINT32_MAX,
                     "checkpoint: state ", i, " has invalid thread ", thread);
    state.thread = static_cast<memsem::ThreadId>(thread);
    state.label = entry.at("label").as_string();
    state.enqueued = entry.at("enqueued").as_bool();
    const auto& words = entry.at("encoding").items();
    support::require(!words.empty(),
                     "checkpoint: state ", i, " has an empty encoding");
    state.encoding.reserve(words.size());
    for (const Json& word : words) {
      state.encoding.push_back(witness::digest_from_hex(word.as_string()));
    }
    ckpt.states.push_back(std::move(state));
  }
  return ckpt;
}

void save_checkpoint(const Checkpoint& ckpt, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  support::require(out.good(), "cannot open checkpoint file for writing: ",
                   path);
  out << to_json(ckpt);
  out.flush();
  support::require(out.good(), "failed writing checkpoint file: ", path);
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  support::require(in.good(), "cannot open checkpoint file: ", path);
  std::ostringstream buf;
  buf << in.rdbuf();
  support::require(!in.bad(), "failed reading checkpoint file: ", path);
  return from_json(buf.str());
}

std::vector<Config> restore_states(const TransitionSystem& ts,
                                   const Checkpoint& ckpt) {
  std::vector<Config> configs;
  configs.reserve(ckpt.states.size());
  StepBuffer buf;
  std::vector<std::uint64_t> scratch;
  for (std::size_t i = 0; i < ckpt.states.size(); ++i) {
    const Checkpoint::State& state = ckpt.states[i];
    if (state.parent < 0) {
      Config init = ts.initial();
      support::require(
          init.encode() == state.encoding,
          "checkpoint does not fit this system: the recorded initial state "
          "differs (wrong program or semantics options?)");
      configs.push_back(std::move(init));
      continue;
    }
    // Re-execute the recorded step through the real semantics and match the
    // stored canonical encoding — the checkpoint analogue of witness replay.
    const Config& parent = configs[static_cast<std::size_t>(state.parent)];
    ts.thread_successors_into(parent, state.thread, buf,
                              /*want_labels=*/false);
    bool found = false;
    for (auto& step : buf.steps()) {
      scratch.clear();
      step.after.encode_into(scratch);
      if (scratch == state.encoding) {
        configs.push_back(std::move(step.after));
        found = true;
        break;
      }
    }
    support::require(found, "checkpoint state ", i,
                     " is not reproducible: thread ", state.thread,
                     " has no enabled step from its recorded parent that "
                     "reaches the recorded state (wrong program, semantics "
                     "options, or a tampered checkpoint)");
  }
  return configs;
}

}  // namespace rc11::engine
