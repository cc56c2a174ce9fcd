// rc11lib/support/intern.hpp
//
// Interning utilities.
//
//   * SymbolTable — string interning for program identifiers (global
//     variables, registers, objects, method names).  The semantics engine
//     works exclusively with dense integer ids; names are kept only for
//     diagnostics and pretty-printing.
//
//   * InternedWordSet — the state-representation workhorse behind the
//     explorer's visited sets: a set of uint64 word sequences (canonical
//     state encodings) stored as an open-addressing fingerprint table over
//     an append-only byte arena.  Compared with the former
//     unordered_map<digest, vector<index>> + vector<vector<uint64_t>>
//     layout this removes every per-state heap allocation (one flat table,
//     one flat arena) and shrinks the stored form by varint-compressing the
//     encoding words, most of which are tiny (op tags, mo ranks, sizes).
//     Exactness is preserved: a fingerprint hit is only a duplicate after
//     the full stored encoding compares equal, so a digest collision can
//     never drop a genuinely new state — it costs one memcmp.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/hash.hpp"

namespace rc11::support {

/// Dense id assigned by a SymbolTable.  Ids are table-local.
using SymbolId = std::uint32_t;

inline constexpr SymbolId kInvalidSymbol = UINT32_MAX;

/// Bidirectional name <-> dense-id map.  Not thread-safe by design: each
/// System (lang/program.hpp) owns its own tables, and exploration threads
/// never mutate them after construction.
class SymbolTable {
 public:
  /// Returns the id for `name`, interning it on first use.
  SymbolId intern(std::string_view name) {
    if (const auto it = ids_.find(std::string{name}); it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<SymbolId>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id for `name` if already interned, kInvalidSymbol otherwise.
  [[nodiscard]] SymbolId lookup(std::string_view name) const {
    const auto it = ids_.find(std::string{name});
    return it == ids_.end() ? kInvalidSymbol : it->second;
  }

  [[nodiscard]] const std::string& name(SymbolId id) const { return names_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const {
    return lookup(name) != kInvalidSymbol;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId> ids_;
};

/// An exact set of uint64 word sequences, interned into a flat arena.
///
/// Layout: an open-addressing (linear-probe) table of 16-byte entries
/// `(digest, offset | length)` plus one append-only byte arena holding the
/// LEB128-varint serialisation of every distinct sequence, back to back.
/// Membership is decided by digest first and confirmed by comparing the full
/// serialised sequence, so the set is exact for any digest function.
///
/// Not thread-safe: the sharded visited set wraps one instance per shard
/// behind the shard mutex; sequential explorers use one instance directly.
class InternedWordSet {
 public:
  InternedWordSet() { table_.resize(kInitialSlots, Entry{0, kEmptySlot}); }

  /// Inserts the sequence, returning true iff it was not present before.
  /// The digest must be a pure function of `words` (same function for every
  /// insert into this set); use the overload below unless the caller already
  /// computed it for routing.
  bool insert(std::span<const std::uint64_t> words, std::uint64_t digest) {
    scratch_.clear();
    for (const auto w : words) append_varint(scratch_, w);
    RC11_REQUIRE(scratch_.size() < kMaxEncodedBytes,
                 "state encoding exceeds the interned-arena entry limit");
    if ((count_ + 1) * 4 >= table_.size() * 3) grow();
    const std::uint64_t mask = table_.size() - 1;
    for (std::uint64_t i = digest & mask;; i = (i + 1) & mask) {
      Entry& e = table_[i];
      if (e.off_len == kEmptySlot) {
        const std::uint64_t off = arena_.size();
        arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
        e.digest = digest;
        e.off_len = (off << kLenBits) | scratch_.size();
        count_ += 1;
        return true;
      }
      if (e.digest == digest && equals_scratch(e)) return false;
    }
  }

  /// Convenience overload computing the digest with hash_words.
  bool insert(std::span<const std::uint64_t> words) {
    return insert(words, hash_words(words));
  }

  /// Insert result with the dense id assigned to the sequence.  `id` is only
  /// meaningful when `inserted` is true (duplicates never need ids in the
  /// exploration engine: a state re-entering the visited set never re-enters
  /// the frontier).
  struct IdedInsert {
    bool inserted = false;
    std::uint32_t id = 0;
  };

  /// Like insert(), but assigns the sequence a dense id (0, 1, 2, … in
  /// insertion order) and remembers its arena slot so the full encoding can
  /// be decoded back by id — the hook the witness subsystem's parent-link
  /// trace reconstruction hangs off.  A set must use either insert() or
  /// insert_ided() exclusively; mixing would desynchronise the id → slot
  /// index (enforced below).
  IdedInsert insert_ided(std::span<const std::uint64_t> words,
                         std::uint64_t digest) {
    RC11_REQUIRE(slots_.size() == count_,
                 "insert_ided on a set already used with plain insert");
    if (!insert(words, digest)) return {false, 0};
    // insert() appended the new payload at the end of the arena.
    const auto id = static_cast<std::uint32_t>(count_ - 1);
    const std::uint64_t len = scratch_.size();
    const std::uint64_t off = arena_.size() - len;
    slots_.push_back((off << kLenBits) | len);
    return {true, id};
  }

  IdedInsert insert_ided(std::span<const std::uint64_t> words) {
    return insert_ided(words, hash_words(words));
  }

  /// Like insert_ided(), but duplicates resolve to the id they were assigned
  /// when first interned instead of an invalid one.  The sampling engine
  /// needs this: episodes revisit states constantly, and a revisited state's
  /// id is the parent link for the next sampled step.  Duplicates are found
  /// by re-probing the table and mapping the matching entry's arena slot
  /// back to its id — slots_ stores off_len in id order and arena offsets
  /// are strictly increasing, so slots_ is sorted and the slot is binary-
  /// searchable.  Same exclusivity rule as insert_ided().
  IdedInsert resolve_ided(std::span<const std::uint64_t> words,
                          std::uint64_t digest) {
    const IdedInsert fresh = insert_ided(words, digest);
    if (fresh.inserted) return fresh;
    // Duplicate: scratch_ still holds the serialisation from insert().
    const std::uint64_t mask = table_.size() - 1;
    for (std::uint64_t i = digest & mask;; i = (i + 1) & mask) {
      const Entry& e = table_[i];
      RC11_REQUIRE(e.off_len != kEmptySlot,
                   "resolve_ided: duplicate vanished from the table");
      if (e.digest == digest && equals_scratch(e)) {
        const auto it =
            std::lower_bound(slots_.begin(), slots_.end(), e.off_len);
        RC11_REQUIRE(it != slots_.end() && *it == e.off_len,
                     "resolve_ided: interned slot missing from the id index");
        return {false,
                static_cast<std::uint32_t>(std::distance(slots_.begin(), it))};
      }
    }
  }

  IdedInsert resolve_ided(std::span<const std::uint64_t> words) {
    return resolve_ided(words, hash_words(words));
  }

  /// Decodes the sequence with the given id (assigned by insert_ided) back
  /// into words, appending to `out`.
  void decode(std::uint32_t id, std::vector<std::uint64_t>& out) const {
    RC11_REQUIRE(id < slots_.size(), "decode: id out of range");
    const std::uint64_t off = slots_[id] >> kLenBits;
    const std::uint64_t len = slots_[id] & kMaxEncodedBytes;
    const std::uint8_t* p = arena_.data() + off;
    const std::uint8_t* end = p + len;
    while (p < end) {
      std::uint64_t w = 0;
      unsigned shift = 0;
      while (*p >= 0x80) {
        w |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
        shift += 7;
        ++p;
      }
      w |= static_cast<std::uint64_t>(*p) << shift;
      ++p;
      out.push_back(w);
    }
  }

  /// True iff the sequence is present (no mutation).
  [[nodiscard]] bool contains(std::span<const std::uint64_t> words) const {
    const std::uint64_t digest = hash_words(words);
    std::vector<std::uint8_t> bytes;
    for (const auto w : words) append_varint(bytes, w);
    const std::uint64_t mask = table_.size() - 1;
    for (std::uint64_t i = digest & mask;; i = (i + 1) & mask) {
      const Entry& e = table_[i];
      if (e.off_len == kEmptySlot) return false;
      if (e.digest == digest && e.length() == bytes.size() &&
          (bytes.empty() ||
           std::memcmp(arena_.data() + e.offset(), bytes.data(),
                       bytes.size()) == 0)) {
        return true;
      }
    }
  }

  /// Number of distinct sequences interned.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Heap footprint: arena + table + scratch capacity (+ the id index when
  /// insert_ided is in use).  This is the figure reported as
  /// ExploreStats::visited_bytes.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return arena_.capacity() + table_.capacity() * sizeof(Entry) +
           scratch_.capacity() + slots_.capacity() * sizeof(std::uint64_t);
  }

 private:
  // offset:40 | length:24 packed into one word; kEmptySlot (all ones) is
  // unreachable because lengths are capped far below 2^24.
  static constexpr unsigned kLenBits = 24;
  static constexpr std::uint64_t kMaxEncodedBytes = (1ULL << kLenBits) - 1;
  static constexpr std::uint64_t kEmptySlot = ~0ULL;
  static constexpr std::size_t kInitialSlots = 16;  // power of two

  struct Entry {
    std::uint64_t digest;
    std::uint64_t off_len;
    [[nodiscard]] std::uint64_t offset() const noexcept {
      return off_len >> kLenBits;
    }
    [[nodiscard]] std::uint64_t length() const noexcept {
      return off_len & kMaxEncodedBytes;
    }
  };

  static void append_varint(std::vector<std::uint8_t>& out, std::uint64_t w) {
    while (w >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(w) | 0x80U);
      w >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(w));
  }

  [[nodiscard]] bool equals_scratch(const Entry& e) const noexcept {
    return e.length() == scratch_.size() &&
           (scratch_.empty() ||
            std::memcmp(arena_.data() + e.offset(), scratch_.data(),
                        scratch_.size()) == 0);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{0, kEmptySlot});
    const std::uint64_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.off_len == kEmptySlot) continue;
      std::uint64_t i = e.digest & mask;
      while (table_[i].off_len != kEmptySlot) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;           // open addressing, power-of-two size
  std::vector<std::uint8_t> arena_;    // varint payloads, back to back
  std::vector<std::uint8_t> scratch_;  // serialisation buffer, reused
  std::vector<std::uint64_t> slots_;   // off_len by id (insert_ided only)
  std::size_t count_ = 0;
};

}  // namespace rc11::support
