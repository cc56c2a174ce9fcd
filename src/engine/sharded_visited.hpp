// rc11lib/engine/sharded_visited.hpp
//
// A lock-striped visited set over canonical state encodings, owned by the
// shared reachability engine (engine/reach.hpp) and used by every checker
// that runs on it: the explorer, the proof-outline checker and the
// refinement graph builder.
//
// Layout: N shards (N a power of two), each an independently locked
// support::InternedWordSet — an open-addressing fingerprint table whose
// 16-byte entries point into a per-shard append-only varint arena.  A state
// is routed to the shard named by the *top* bits of its 64-bit encoding
// digest, and the digest then indexes the open-addressing table inside the
// shard, so the two levels consume disjoint bits and states spread evenly.
// There is no per-state heap allocation: duplicates touch only the table,
// and new states append their compressed encoding to the shard arena.
//
// Soundness: exactly like the interned word set each shard wraps, a
// fingerprint hit is confirmed against the complete stored encoding before
// an insert is refused — a digest collision can never make exploration drop
// a genuinely new state, it only costs a memcmp.  Because each encoding maps to exactly
// one shard, the per-shard mutex makes insert() linearisable: of two racing
// inserts of the same encoding exactly one returns true, which is the
// property the exploration engine needs (every reachable state is expanded
// exactly once, regardless of which worker discovered it).
//
// Parent tracking (the witness subsystem's trace source): insert_traced()
// additionally records, per *newly interned* state and under the same shard
// lock, the id of the state it was generated from plus a step descriptor
// (acting thread + label).  Every state receives its parent exactly once —
// from whichever worker won the insert race — and that parent was interned
// strictly earlier, so the links form a forest rooted at the initial state
// and path_to() always terminates.  This is what makes counterexample
// traces schedule-independent in *validity* (any recorded path is a real
// execution) even though the specific path may vary run to run.

#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "memsem/types.hpp"
#include "support/hash.hpp"
#include "support/intern.hpp"

namespace rc11::engine {

class ShardedVisitedSet {
 public:
  /// Sentinel parent for the initial state / "no id available" marker.
  static constexpr std::uint64_t kNoState = ~0ULL;

  /// One parent link: how a state was first reached.
  struct TraceEdge {
    std::uint64_t state = kNoState;   ///< the state this edge leads *to*
    std::uint64_t parent = kNoState;  ///< state it was generated from
    memsem::ThreadId thread = 0;      ///< acting thread of the step
    std::string label;                ///< human-readable step description
  };

  struct TracedInsert {
    bool inserted = false;
    std::uint64_t id = kNoState;  ///< valid iff inserted
  };

  /// Result of insert_masked: the sleep-set-aware membership test the
  /// reduction paths of the reachability driver run on (see reach.cpp).
  struct MaskedInsert {
    bool inserted = false;  ///< first time this encoding was seen
    /// The caller should (re-)expand the state: it is fresh, or the stored
    /// sleep mask strictly shrank under the arriving one (Godefroid's
    /// revisit rule — a previously skipped transition is now required).
    bool expand = false;
    /// The mask to expand with: the arriving mask on a fresh insert, the
    /// intersection old ∩ new on a mask-shrinking revisit, the (unchanged)
    /// stored mask otherwise.
    std::uint64_t mask = 0;
  };

  /// `shard_count` is rounded up to a power of two (at least 1).  64 shards
  /// keep the expected queue depth per mutex negligible for any realistic
  /// worker count while costing only a few KiB empty.
  explicit ShardedVisitedSet(unsigned shard_count = 64) {
    unsigned n = 1;
    while (n < shard_count && n < (1U << 16)) n <<= 1;
    shards_ = std::vector<Shard>(n);
    shard_shift_ = 64U;
    shard_bits_ = 0;
    for (unsigned v = n; v > 1; v >>= 1) {
      shard_shift_ -= 1;
      shard_bits_ += 1;
    }
  }

  /// Returns true iff the encoding was newly inserted.  Thread-safe.  The
  /// words are only copied (compressed, into the shard arena) when they are
  /// genuinely new; a duplicate allocates nothing.
  bool insert(std::span<const std::uint64_t> encoding) {
    const std::uint64_t digest = support::hash_words(encoding);
    Shard& shard = shards_[shard_of(digest)];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.set.insert(encoding, digest);
  }

  /// Inserts the encoding and, iff it is new, records its parent link under
  /// the same shard lock (so id assignment and parent recording are one
  /// atomic step).  `parent` is the id a previous insert_traced returned for
  /// the state the step was taken from, or kNoState for the initial state.
  /// The label is consumed only for genuinely new states.  `enqueued` marks
  /// states the driver puts on its frontier; POR chain collapse passes false
  /// for chain-internal states, which are interned for witness traces but
  /// never independently expanded — a checkpoint must not resurrect them as
  /// frontier work.  Thread-safe; a set used with insert_traced must use it
  /// exclusively.
  TracedInsert insert_traced(std::span<const std::uint64_t> encoding,
                             std::uint64_t parent, memsem::ThreadId thread,
                             std::string&& label, bool enqueued = true) {
    const std::uint64_t digest = support::hash_words(encoding);
    const std::size_t si = shard_of(digest);
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto ided = shard.set.insert_ided(encoding, digest);
    if (!ided.inserted) return {false, kNoState};
    // Local ids are dense per shard; parents_ grows in lockstep with them.
    shard.parents.push_back({parent, thread, std::move(label), enqueued});
    shard.label_bytes += shard.parents.back().label.capacity();
    return {true, compose_id(si, ided.id)};
  }

  /// Like insert_traced(), but a duplicate resolves to the id the state was
  /// assigned when first interned (insert_traced returns kNoState for
  /// duplicates because exhaustive drivers never revisit).  The sampling
  /// engine threads every step through this: a revisited state's id becomes
  /// the parent of the next sampled step, so violating episodes stay
  /// replayable witnesses no matter how many earlier episodes crossed the
  /// same states.  The parent link is still recorded only on genuine
  /// inserts — first reach wins, exactly like insert_traced.
  TracedInsert resolve_traced(std::span<const std::uint64_t> encoding,
                              std::uint64_t parent, memsem::ThreadId thread,
                              std::string&& label, bool enqueued = true) {
    const std::uint64_t digest = support::hash_words(encoding);
    const std::size_t si = shard_of(digest);
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto ided = shard.set.resolve_ided(encoding, digest);
    if (ided.inserted) {
      shard.parents.push_back({parent, thread, std::move(label), enqueued});
      shard.label_bytes += shard.parents.back().label.capacity();
    }
    return {ided.inserted, compose_id(si, ided.id)};
  }

  /// Membership test with a per-state sleep mask, linearised under the shard
  /// lock: a fresh encoding is interned with `mask` stored; a duplicate
  /// intersects the stored mask with the arriving one and reports `expand`
  /// iff the stored mask strictly shrank (so the caller re-expands the state
  /// with the intersection — masks shrink monotonically, bounding revisits
  /// at 64 per state).  With all-zero masks this degenerates to an exact
  /// insert(), which is how the symmetry quotient uses it when sleep sets
  /// are off.  A set used with insert_masked must use it exclusively.
  MaskedInsert insert_masked(std::span<const std::uint64_t> encoding,
                             std::uint64_t mask) {
    const std::uint64_t digest = support::hash_words(encoding);
    Shard& shard = shards_[shard_of(digest)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto ided = shard.set.resolve_ided(encoding, digest);
    if (ided.inserted) {
      shard.masks.push_back(mask);
      return {true, true, mask};
    }
    std::uint64_t& stored = shard.masks[ided.id];
    const std::uint64_t meet = stored & mask;
    if (meet == stored) return {false, false, stored};
    stored = meet;
    return {false, true, meet};
  }

  /// Marks an interned state as frontier work after the fact.  The symmetry
  /// quotient interns every concrete successor with enqueued=false first and
  /// lets the *canonical-set winner* flip the flag — the insert race between
  /// orbit mates is decided in the canonical set, not the concrete sink, so
  /// the flag cannot be decided at insert_traced time.  Thread-safe.
  void mark_enqueued(std::uint64_t id) {
    Shard& shard = shards_[shard_index(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.parents.at(local_id(id)).enqueued = true;
  }

  /// Reconstructs the unique recorded path from the initial state to `id`:
  /// edges in execution order, each naming the acting thread, the step label
  /// and the reached state's id.  Thread-safe against concurrent inserts
  /// (each shard lookup takes its shard lock; locks are never nested), so a
  /// violating state can be reconstructed mid-exploration.
  [[nodiscard]] std::vector<TraceEdge> path_to(std::uint64_t id) const {
    std::vector<TraceEdge> edges;
    std::uint64_t cur = id;
    while (cur != kNoState) {
      const std::size_t si = shard_index(cur);
      const std::uint32_t local = local_id(cur);
      const Shard& shard = shards_[si];
      std::lock_guard<std::mutex> lock(shard.mu);
      const ParentEntry& entry = shard.parents.at(local);
      if (entry.parent == kNoState) break;  // root: no incoming step
      edges.push_back({cur, entry.parent, entry.thread, entry.label});
      cur = entry.parent;
    }
    std::reverse(edges.begin(), edges.end());
    return edges;
  }

  /// Decodes the canonical encoding of a state interned via insert_traced,
  /// appending its words to `out`.  Thread-safe (shard-locked).
  void decode_state(std::uint64_t id, std::vector<std::uint64_t>& out) const {
    const Shard& shard = shards_[shard_index(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.set.decode(local_id(id), out);
  }

  /// Total states inserted.  Takes each shard lock briefly, so it is safe
  /// (if approximate) while inserts are in flight; callers read it after
  /// workers have joined for an exact count.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.set.size();
    }
    return total;
  }

  /// Total heap footprint of all shards (arena + fingerprint tables + parent
  /// links), for ExploreStats::visited_bytes.  O(shard count): label sizes
  /// are accumulated incrementally at insert time, so the memory-budget
  /// enforcer can probe this periodically without walking every parent
  /// entry.  Same locking discipline as size().
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.set.bytes() +
               shard.parents.capacity() * sizeof(ParentEntry) +
               shard.label_bytes +
               shard.masks.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

  /// One interned state, fully materialised for checkpointing: its id, its
  /// recorded parent link, whether the driver enqueued it, and its decoded
  /// canonical encoding.
  struct SnapshotEntry {
    std::uint64_t id = kNoState;
    std::uint64_t parent = kNoState;
    memsem::ThreadId thread = 0;
    std::string label;
    bool enqueued = true;
    std::vector<std::uint64_t> encoding;
  };

  /// Materialises every state interned via insert_traced, in unspecified
  /// order (parents are *not* guaranteed to precede children; the checkpoint
  /// writer orders them).  Call only after workers have joined.
  [[nodiscard]] std::vector<SnapshotEntry> snapshot() const {
    std::vector<SnapshotEntry> out;
    out.reserve(size());
    for (std::size_t si = 0; si < shards_.size(); ++si) {
      const Shard& shard = shards_[si];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (std::uint32_t local = 0; local < shard.parents.size(); ++local) {
        const ParentEntry& entry = shard.parents[local];
        SnapshotEntry snap;
        snap.id = compose_id(si, local);
        snap.parent = entry.parent;
        snap.thread = entry.thread;
        snap.label = entry.label;
        snap.enqueued = entry.enqueued;
        shard.set.decode(local, snap.encoding);
        out.push_back(std::move(snap));
      }
    }
    return out;
  }

 private:
  struct ParentEntry {
    std::uint64_t parent = kNoState;
    memsem::ThreadId thread = 0;
    std::string label;
    bool enqueued = true;
  };

  struct Shard {
    mutable std::mutex mu;
    support::InternedWordSet set;
    std::vector<ParentEntry> parents;  ///< by local id (insert_traced only)
    std::size_t label_bytes = 0;       ///< sum of parents[i].label.capacity()
    std::vector<std::uint64_t> masks;  ///< by local id (insert_masked only)
  };

  [[nodiscard]] std::size_t shard_of(std::uint64_t digest) const noexcept {
    return shard_shift_ >= 64U ? 0 : static_cast<std::size_t>(digest >> shard_shift_);
  }

  // Global ids interleave (local id << bits) | shard so they stay dense-ish
  // and both halves are recoverable without a lookup.
  [[nodiscard]] std::uint64_t compose_id(std::size_t shard,
                                         std::uint32_t local) const noexcept {
    return (static_cast<std::uint64_t>(local) << shard_bits_) |
           static_cast<std::uint64_t>(shard);
  }
  [[nodiscard]] std::size_t shard_index(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(id & ((1ULL << shard_bits_) - 1));
  }
  [[nodiscard]] std::uint32_t local_id(std::uint64_t id) const noexcept {
    return static_cast<std::uint32_t>(id >> shard_bits_);
  }

  std::vector<Shard> shards_;
  unsigned shard_shift_ = 64;
  unsigned shard_bits_ = 0;
};

}  // namespace rc11::engine
