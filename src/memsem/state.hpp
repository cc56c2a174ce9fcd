// rc11lib/memsem/state.hpp
//
// The weak-memory state of a combined client-library system and the
// transition rules of the paper:
//
//   * Section 3.3 / Figure 5: READ, WRITE and UPDATE transitions over
//     timestamped operation sets (ops), thread view fronts (tview),
//     per-write modification views (mview) and the covered set (cvd),
//     including the cross-component view transfer (ctview) that lets
//     synchronisation inside one component update a thread's view of the
//     other component.
//
//   * Section 4 / Figure 6: abstract object operations (lock acquire /
//     release; our stack push / pop) realised through the generic
//     append-at-maximal-timestamp + synchronise + cover primitives that
//     both rules of Fig. 6 instantiate.
//
// Representation notes (see DESIGN.md Section 4):
//
//   * The paper splits the state into a client state γ and a library state β
//     whose tviews range over their own component's variables, while mviews
//     range over *all* variables.  We store one operation arena and, per
//     thread, one viewfront row over all locations; entries at client
//     locations are exactly γ.tview_t and entries at library locations are
//     β.tview_t.  With that representation the paper's two-sided rules
//     (tview' and ctview' computed separately) collapse into a single
//     pointwise view merge, which is easy to see equivalent and much harder
//     to get wrong.
//
//   * Flat layout.  Every component lives in a fixed number of flat arrays,
//     never one vector per operation, location or thread: the op arena; all
//     mviews as one num_ops × num_locs OpId array (row = op id); all
//     modification orders concatenated into one OpId array with per-location
//     offsets; all tviews as one num_threads × num_locs array.  Copying a
//     state therefore costs the same few allocations whatever its operation
//     count, and copy-assigning into a state of the same size costs none —
//     which is what lets lang::StepBuffer refill its pooled slots for free.
//     Adding an operation grows the mview array, so a row pointer must be
//     taken only after the growth.
//
//   * Timestamps.  Modification order per location is an explicit sequence
//     (so the canonical "rank" of an operation is its position), and every
//     operation additionally carries a faithful rational timestamp assigned
//     by the paper's fresh-timestamp rule (midpoint insertion / successor at
//     the end).  State equality and hashing use the canonical ranks by
//     default; the A3 ablation switches to raw rationals to demonstrate why
//     canonicalisation is needed for finite exploration.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "memsem/location.hpp"
#include "memsem/types.hpp"
#include "support/rational.hpp"

namespace rc11::memsem {

/// Sentinel "no program counter" for accesses performed outside a program
/// step (tests driving MemState directly, object operations).  Accesses with
/// this site are clock-maintained but never race-checked.
inline constexpr std::uint32_t kNoSite = 0xffffffffu;

/// Classification of a variable access for the race detector.  At least one
/// write and at least one non-atomic access make a conflicting pair racy, so
/// the detector keys its per-location summaries by this four-way split.
enum class RaceCat : std::uint8_t {
  NaRead = 0,       ///< non-atomic load
  AtomicRead = 1,   ///< relaxed/acquire (atomic) load
  NaWrite = 2,      ///< non-atomic store
  AtomicWrite = 3,  ///< relaxed/release store, CAS, FAI
};
inline constexpr std::size_t kNumRaceCats = 4;

/// One side of a reported race: which thread, at which program counter,
/// performed what kind of access.
struct RaceAccess {
  ThreadId thread = 0;
  std::uint32_t pc = kNoSite;
  RaceCat cat = RaceCat::NaRead;
  friend bool operator==(const RaceAccess&, const RaceAccess&) = default;
};

/// A happens-before data race: two conflicting accesses of `loc` (>= 1
/// write, >= 1 non-atomic) with neither ordered before the other.  `current`
/// is the access whose step detected the race; `prior` is the last
/// conflicting access recorded in the per-location summary.
struct RaceRecord {
  LocId loc = 0;
  RaceAccess prior;
  RaceAccess current;
  friend bool operator==(const RaceRecord&, const RaceRecord&) = default;
};

/// One modifying operation: the paper's (action, timestamp) pair.  The
/// modification view attached to it at creation time is MemState::mview(id).
struct Op {
  LocId loc = 0;
  ThreadId thread = 0;     ///< executing thread (part of the action identity)
  OpKind kind = OpKind::Init;
  Value value = 0;         ///< written value / lock version / pushed value
  Value read_value = 0;    ///< for Update: the value read (m in upd(x, m, n))
  bool releasing = false;  ///< member of W_R: a later acquiring read of this
                           ///  operation synchronises (merges mview)
  bool covered = false;    ///< member of cvd
  std::uint32_t mo_pos = 0;  ///< current rank in the location's mo sequence
  support::Rational ts;      ///< faithful rational timestamp
};

/// The word that names an operation's action in an encoding: the kind in
/// bits 0-7, the executing-thread tag `thread` from bit 8, the releasing
/// bit at 40 and the covered bit at 41.  `thread` is op.thread, or its image
/// under a thread relabelling (EncodeView).
[[nodiscard]] inline std::uint64_t op_tag(const Op& op, ThreadId thread) {
  return static_cast<std::uint64_t>(op.kind) |
         (static_cast<std::uint64_t>(thread) << 8) |
         (static_cast<std::uint64_t>(op.releasing) << 40) |
         (static_cast<std::uint64_t>(op.covered) << 41);
}

/// How MemState::encode (and lang::Config::encode_into) read a state.  The
/// default view encodes the state as it is; each field is set by the engine
/// layer that needs it, never by a user.
///
///   * A thread relabelling (symmetry keys, orbit walks): slot s is filled
///     with thread thread_of[s]'s components — pc, registers, viewfront row,
///     clock row and column, message entry and last-access summaries — and
///     operation thread tags t become slot_of[t], init operations excepted.
///     thread_of is the inverse of slot_of.  The words are exactly the
///     default encoding of the relabelled state (permute_threads(slot_of);
///     engine::SymmetryReducer::permuted for a configuration), without
///     copying it.
///
///   * An rf-quotient keep mask (--rf-quotient keys; engine/abstraction.hpp):
///     num_threads × num_locs bytes indexed [thread * num_locs + loc].  A
///     thread's viewfront entry is encoded only where its byte is nonzero,
///     and the modification views of non-releasing plain-variable operations
///     are left out: no synchronisation ever merges them (read() and
///     update() only synchronise with releasing writes, object_op() and
///     consume() only with object-location operations).  The caller derives
///     the mask from the program counters, which the encoding carries ahead
///     of the memory block, so equal keys always dropped the same entries.
struct EncodeView {
  std::span<const ThreadId> slot_of = {};    ///< empty: the identity
  std::span<const ThreadId> thread_of = {};  ///< empty: the identity
  std::span<const std::uint8_t> tview_keep = {};  ///< empty: keep everything

  /// The thread whose components fill slot `s`.
  [[nodiscard]] ThreadId thread_at(ThreadId s) const {
    return thread_of.empty() ? s : thread_of[s];
  }
};

/// Which memory model the transitions implement.
enum class MemoryModel : std::uint8_t {
  /// The paper's model: per-thread views, relaxed and release/acquire
  /// accesses, stale reads allowed.
  RC11RAR,
  /// Sequential consistency as a baseline comparator: every read returns the
  /// mo-maximal write and every access synchronises, so all threads share
  /// one up-to-date view.  Implemented in the *same* engine by restricting
  /// observability to the maximal write and forcing synchronisation — weak
  /// behaviours are exactly the outcomes RC11RAR adds over this mode.
  SC,
};

/// Tunable semantics switches.  The defaults implement the paper exactly;
/// the alternatives exist solely for the ablation experiments (DESIGN.md
/// experiments A1-A3) that demonstrate why each mechanism is necessary.
struct SemanticsOptions {
  /// A1: when false, a synchronising read merges the releasing write's mview
  /// into the executing component's locations only — the context component's
  /// thread view (the paper's ctview) is left unchanged.  Message passing
  /// through a library then fails to transfer client views.
  bool cross_component_view_transfer = true;

  /// A2: when false, the covered set is ignored when choosing the write an
  /// operation is placed after, breaking update atomicity (two CASes can both
  /// succeed on the same write).
  bool enforce_covered = true;

  /// Baseline selector (see MemoryModel).
  MemoryModel model = MemoryModel::RC11RAR;

  /// A3: when false, state encodings embed raw rational timestamps instead of
  /// canonical modification-order ranks, so order-isomorphic states are no
  /// longer identified and exploration blows up.
  bool canonical_timestamps = true;

  /// When true, the state additionally maintains FastTrack-style vector
  /// clocks deriving the C11 happens-before order from the synchronisation
  /// the views already perform (clocks join exactly where views merge), plus
  /// per-location last-access summaries, and flags hb-unordered conflicting
  /// access pairs as data races (src/race/).  Off by default: the non-race
  /// checkers pay zero overhead.
  bool race_detection = false;

  friend bool operator==(const SemanticsOptions&, const SemanticsOptions&) = default;
};

/// The combined client-library weak-memory state (γ and β of the paper).
class MemState {
 public:
  /// Builds the initial state Γ_Init of Section 3.3: one initialising write
  /// (timestamp 0) per variable and one init operation per object; every
  /// thread's view of every location is its init operation; every init
  /// operation's mview is the full initial viewfront; cvd is empty.
  MemState(const LocationTable& locs, ThreadId num_threads,
           SemanticsOptions options = {});

  // ------------------------------------------------------------------
  // Queries
  // ------------------------------------------------------------------

  [[nodiscard]] const LocationTable& locations() const { return *locs_; }
  [[nodiscard]] ThreadId num_threads() const { return num_threads_; }
  [[nodiscard]] const SemanticsOptions& options() const { return options_; }

  [[nodiscard]] const Op& op(OpId id) const { return ops_[id]; }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_.size(); }

  /// Modification order of a location, ascending by timestamp.
  [[nodiscard]] std::span<const OpId> mo(LocId loc) const {
    return {mo_.data() + mo_start_[loc], mo_start_[loc + 1] - mo_start_[loc]};
  }

  /// The modification view of an operation: the viewfront (one operation per
  /// location, over all locations) of its writer just after it.
  [[nodiscard]] std::span<const OpId> mview(OpId id) const {
    return {mviews_.data() + static_cast<std::size_t>(id) * num_locs(),
            num_locs()};
  }

  /// The operation a thread's viewfront designates for a location
  /// (tview_t(x), resp. β.tview_t(y) — component determined by the location).
  [[nodiscard]] OpId view_front(ThreadId t, LocId loc) const {
    return tview_[static_cast<std::size_t>(t) * num_locs() + loc];
  }

  /// Obs(t, x): the operations on `loc` that thread `t` may read from — all
  /// operations whose timestamp is at least the thread's viewfront (§3.3).
  [[nodiscard]] std::vector<OpId> observable(ThreadId t, LocId loc) const;

  /// Obs(t, x) \ cvd: the operations a new write/update may be placed after.
  [[nodiscard]] std::vector<OpId> observable_uncovered(ThreadId t, LocId loc) const;

  /// Scratch-buffer forms of the two queries above: clear `out` and fill it,
  /// so successor generation can reuse one buffer per exploration instead of
  /// allocating a vector per instruction.
  void observable_into(ThreadId t, LocId loc, std::vector<OpId>& out) const;
  void observable_uncovered_into(ThreadId t, LocId loc,
                                 std::vector<OpId>& out) const;

  /// The last (maximal-timestamp) operation of a location; maxTS of §4.
  [[nodiscard]] OpId last_op(LocId loc) const;

  /// The value a read of `w` returns (wrval: written value; for updates the
  /// value written, for a stack push the pushed value).
  [[nodiscard]] Value read_value_of(OpId w) const { return ops_[w].value; }

  /// Rank of `w` in its location's modification order.
  [[nodiscard]] std::uint32_t rank(OpId w) const { return ops_[w].mo_pos; }

  // ------------------------------------------------------------------
  // Figure 5 transitions
  // ------------------------------------------------------------------

  /// READ: thread `t` reads operation `w` (must be in Obs(t, loc)) with
  /// order `Relaxed`, `Acquire` or `NonAtomic`.  Returns the value read.  If
  /// `w` is releasing and the read acquires, the thread's view of *all*
  /// locations is merged with mview_w (this is simultaneously the paper's
  /// tview' ⊗ and ctview' ⊗ updates); otherwise only the viewfront of `loc`
  /// advances.  `site_pc` identifies the program counter of the access for
  /// race reporting (kNoSite disables the race check for this access).
  Value read(ThreadId t, LocId loc, OpId w, MemOrder order,
             std::uint32_t site_pc = kNoSite);

  /// WRITE: thread `t` writes `v` immediately after `after` (must be in
  /// Obs(t, loc) \ cvd) with order `Relaxed`, `Release` or `NonAtomic`.
  /// Returns the new operation.
  OpId write(ThreadId t, LocId loc, Value v, MemOrder order, OpId after,
             std::uint32_t site_pc = kNoSite);

  /// UPDATE: thread `t` performs upd^RA(loc, read_value_of(w), v): reads `w`
  /// (must be in Obs(t, loc) \ cvd), writes `v` immediately after it, covers
  /// `w`, and synchronises if `w` is releasing.  The new operation is
  /// releasing.  Returns the new operation.
  OpId update(ThreadId t, LocId loc, OpId w, Value v,
              std::uint32_t site_pc = kNoSite);

  // ------------------------------------------------------------------
  // Race detection (options().race_detection; src/race/)
  // ------------------------------------------------------------------

  /// Clears the per-step race buffer.  Called by the step layer before each
  /// program step mutates the state, so race_records() afterwards holds
  /// exactly the races that step introduced.  No-op when race detection is
  /// off.
  void race_begin_step() {
    if (race_) race_->pending.clear();
  }

  /// The races detected since the last race_begin_step().  Empty when race
  /// detection is off.
  [[nodiscard]] std::span<const RaceRecord> race_records() const {
    static const std::vector<RaceRecord> kEmpty;
    return race_ ? std::span<const RaceRecord>(race_->pending)
                 : std::span<const RaceRecord>(kEmpty);
  }

  // ------------------------------------------------------------------
  // Abstract object primitive (Section 4)
  // ------------------------------------------------------------------

  /// Appends an object operation with a maximal timestamp for `loc`
  /// (the ordering discipline of Fig. 6: "each new lock acquire and release
  /// must have a larger timestamp than all other existing operations").
  ///
  /// If `sync_with` is set, the executing thread first synchronises with that
  /// operation (merging its mview into the thread's view — the acquire case);
  /// if `cover` is additionally true, `sync_with` is added to cvd.  The new
  /// operation's mview is the thread's resulting viewfront (tview' ∪ ctview'
  /// in Fig. 6).
  OpId object_op(ThreadId t, LocId loc, OpKind kind, Value value,
                 bool releasing, std::optional<OpId> sync_with, bool cover);

  /// Covers an existing operation without adding a new one (used by the
  /// stack's pop, which consumes its matched push).  If `sync` is true the
  /// executing thread synchronises with `w` first.
  void consume(ThreadId t, LocId loc, OpId w, bool sync);

  // ------------------------------------------------------------------
  // Thread permutation (engine symmetry reduction)
  // ------------------------------------------------------------------

  /// Relabels threads in place under `slot_of` (thread t becomes
  /// slot_of[t], a permutation of [0, num_threads)): operation thread tags
  /// are remapped and thread viewfront rows reindexed.  Init operations keep
  /// their tag — they belong to the initial state, which every group element
  /// must fix (no execution ever re-attributes an init, so relabelling one
  /// would manufacture encodings no run reaches).  Modification order,
  /// values, timestamps, covered flags and per-operation mviews are
  /// thread-invariant and untouched.  For systems whose permuted threads run
  /// identical code this is the group action the symmetry quotient
  /// (engine/symmetry.hpp) explores modulo.
  void permute_threads(const std::vector<ThreadId>& slot_of);

  // ------------------------------------------------------------------
  // Encoding
  // ------------------------------------------------------------------

  /// Appends the canonical encoding of this state, read through `view`, to
  /// `out` — the one writer of every state key (layout: docs/SEMANTICS.md
  /// §5).  Two states have equal default encodings iff they are equal up to
  /// order-isomorphism of timestamps (with options().canonical_timestamps;
  /// otherwise raw rational timestamps are embedded, distinguishing
  /// isomorphic states).
  void encode(std::vector<std::uint64_t>& out,
              const EncodeView& view = {}) const;

  /// Human-readable dump for diagnostics and counterexamples.
  [[nodiscard]] std::string to_string() const;

 private:
  /// FastTrack-style clock state, engaged iff options().race_detection.
  /// Everything here is derived from the synchronisation structure the views
  /// already maintain: clock rows join exactly where merge_view_into runs for
  /// a genuine synchronisation, and messages attach exactly at releasing
  /// operations.  `pending` is per-step scratch and NOT part of the encoding.
  struct RaceClocks {
    /// T×T matrix, row t = C_t (thread t's vector clock).  C_t[t] starts at
    /// 1, everything else at 0: no cross-thread access is ordered until a
    /// real release/acquire chain carries the epoch over.
    std::vector<std::uint32_t> vc;
    /// Parallel to the op arena: the clock message a releasing operation
    /// carries (a copy of the writer's C_t at creation).  Empty for
    /// non-releasing operations — presence mirrors the `releasing` bit,
    /// which the canonical encoding already pins.
    std::vector<std::vector<std::uint32_t>> msg;
    /// Per (location, thread, RaceCat) last-access summary: the accessing
    /// thread's epoch C_t[t] at the access (0 = no such access yet) and the
    /// access's program counter for the report.  Keeps the race check
    /// O(threads) per step instead of O(history).
    struct Cell {
      std::uint32_t clock = 0;
      std::uint32_t pc = 0;
    };
    std::vector<Cell> summary;  // [(loc * T + t) * kNumRaceCats + cat]
    /// Races detected since race_begin_step().  Transient.
    std::vector<RaceRecord> pending;
  };

  /// Joins op `w`'s clock message into thread `t`'s clock row (the hb edge a
  /// synchronising read/acquire creates).  No-op if `w` carries no message.
  void race_join(ThreadId t, OpId w);
  /// Attaches thread `t`'s current clock row to operation `id` (which must
  /// be releasing) and then advances t's epoch.
  void race_attach(ThreadId t, OpId id);
  /// Race-checks one variable access against the location's summaries and
  /// records it there.  Called only for var locations with a real site.
  void race_access(ThreadId t, LocId loc, RaceCat cat, std::uint32_t pc);

  [[nodiscard]] std::size_t num_locs() const noexcept { return locs_->size(); }

  /// Thread t's viewfront row (num_locs entries).
  [[nodiscard]] OpId* tview_row(ThreadId t) {
    return tview_.data() + static_cast<std::size_t>(t) * num_locs();
  }

  /// encode()'s body, instantiated per view kind so that no view pays a
  /// per-word test for the other's fields.
  template <bool kRelabel, bool kQuotient>
  void encode_view(std::vector<std::uint64_t>& out,
                   const EncodeView& view) const;

  /// Pointwise-later merge: the paper's V1 ⊗ V2 (keeps the operation with the
  /// larger timestamp per location).  If `only` is set, locations of other
  /// components are skipped — this is the A1 ablation's crippled transfer
  /// that suppresses the paper's ctview update.
  void merge_view_into(OpId* target, std::span<const OpId> source,
                       std::optional<Component> only) const;

  /// The synchronisation of Fig. 5 / Fig. 6: thread `t` merges `w`'s mview
  /// into its viewfront (across both components unless the A1 ablation
  /// restricts it to `loc`'s) and joins `w`'s clock message.
  void synchronise(ThreadId t, LocId loc, OpId w);

  /// Appends `op` to the arena with an (unset) mview row and, under race
  /// detection, an empty clock-message slot.  Does not touch mo.
  OpId append_op(Op op);

  /// Sets `id`'s mview to thread `t`'s current viewfront (mview' = tview' ∪
  /// β.tview_t: the writer's full, both-component view).
  void snapshot_mview(OpId id, ThreadId t);

  /// Inserts a fresh operation right after `after` in `loc`'s modification
  /// order, assigning a fresh rational timestamp per fresh_γ(q, q').
  OpId insert_after(LocId loc, Op op, OpId after);

  /// Inserts `id` at flat mo index `at`, which lies in `loc`'s range or at
  /// its end, and shifts the offsets of every later location.
  void mo_insert(LocId loc, std::size_t at, OpId id);

  const LocationTable* locs_;
  ThreadId num_threads_;
  SemanticsOptions options_;

  std::vector<Op> ops_;         // arena; OpId indexes this
  std::vector<OpId> mviews_;    // num_ops × num_locs; row = OpId
  std::vector<OpId> mo_;        // every location's mo, ascending timestamp
  std::vector<std::uint32_t> mo_start_;  // num_locs + 1 offsets into mo_
  std::vector<OpId> tview_;     // num_threads × num_locs
  std::optional<RaceClocks> race_;  // engaged iff options_.race_detection
};

}  // namespace rc11::memsem
