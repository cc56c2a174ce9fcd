#include "memsem/state.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "support/diagnostics.hpp"

namespace rc11::memsem {

using support::Rational;

MemState::MemState(const LocationTable& locs, ThreadId num_threads,
                   SemanticsOptions options)
    : locs_(&locs), num_threads_(num_threads), options_(options) {
  support::require(num_threads > 0, "a system needs at least one thread");
  const auto num_locs = locs.size();
  ops_.reserve(num_locs);

  // One initialising operation per location, all at timestamp 0.  Object
  // init operations are releasing: Fig. 6's acquire synchronises with the
  // operation it observes, which may be l.init_0.  Plain-variable
  // initialisation is a relaxed write (as in the paper's examples, where
  // message passing cannot be established through initialisation alone).
  std::vector<OpId> init_view(num_locs, kNoOp);
  for (LocId loc = 0; loc < num_locs; ++loc) {
    Op op;
    op.loc = loc;
    op.thread = 0;
    op.kind = OpKind::Init;
    op.value = locs.is_var(loc) ? locs.info(loc).initial : 0;
    op.releasing = !locs.is_var(loc);
    op.mo_pos = 0;
    op.ts = Rational{0};
    const auto id = static_cast<OpId>(ops_.size());
    ops_.push_back(std::move(op));
    mo_start_.push_back(static_cast<std::uint32_t>(mo_.size()));
    mo_.push_back(id);
    init_view[loc] = id;
  }
  mo_start_.push_back(static_cast<std::uint32_t>(mo_.size()));
  // mview of every init operation is the full initial viewfront
  // (mview of γ_Init = γ_Init.tview ∪ β_Init.tview in §3.3).
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    mviews_.insert(mviews_.end(), init_view.begin(), init_view.end());
  }
  for (ThreadId t = 0; t < num_threads; ++t) {
    tview_.insert(tview_.end(), init_view.begin(), init_view.end());
  }

  if (options_.race_detection) {
    race_.emplace();
    const std::size_t t_count = num_threads;
    race_->vc.assign(t_count * t_count, 0);
    for (std::size_t t = 0; t < t_count; ++t) race_->vc[t * t_count + t] = 1;
    // Init operations happen-before everything, so their messages are the
    // zero clock: joining them orders nothing beyond what is already known.
    race_->msg.resize(ops_.size());
    for (std::size_t id = 0; id < ops_.size(); ++id) {
      if (ops_[id].releasing) {
        race_->msg[id].assign(t_count, 0);
      }
    }
    race_->summary.assign(num_locs * t_count * kNumRaceCats, {});
  }
}

void MemState::race_join(ThreadId t, OpId w) {
  if (!race_) return;
  const auto& m = race_->msg[w];
  if (m.empty()) return;
  const std::size_t row = static_cast<std::size_t>(t) * num_threads_;
  for (ThreadId u = 0; u < num_threads_; ++u) {
    race_->vc[row + u] = std::max(race_->vc[row + u], m[u]);
  }
}

void MemState::race_attach(ThreadId t, OpId id) {
  if (!race_) return;
  const auto row = static_cast<std::ptrdiff_t>(t) * num_threads_;
  race_->msg[id].assign(race_->vc.begin() + row,
                        race_->vc.begin() + row + num_threads_);
  // Advance t's epoch *after* publishing the message: the acquirer of this
  // operation synchronises with the operation itself, so accesses recorded
  // at the pre-increment epoch are ordered before the acquirer and accesses
  // after the release are not.
  race_->vc[static_cast<std::size_t>(row) + t] += 1;
}

namespace {

/// Conflicting categories per accessing category: pairs with >= 1 write and
/// >= 1 non-atomic access.  Two atomic accesses never race; two reads never
/// race.
constexpr std::array<std::array<bool, kNumRaceCats>, kNumRaceCats>
    kConflicts = {{
        // accessing: NaRead — races with any write
        {{false, false, true, true}},
        // accessing: AtomicRead — races with a non-atomic write only
        {{false, false, true, false}},
        // accessing: NaWrite — races with everything
        {{true, true, true, true}},
        // accessing: AtomicWrite — races with non-atomic accesses only
        {{true, false, true, false}},
    }};

}  // namespace

void MemState::race_access(ThreadId t, LocId loc, RaceCat cat,
                           std::uint32_t pc) {
  if (!race_) return;
  auto& rc = *race_;
  const std::size_t t_count = num_threads_;
  const std::size_t row = static_cast<std::size_t>(t) * t_count;
  const std::size_t base = static_cast<std::size_t>(loc) * t_count;
  const auto& conflicts = kConflicts[static_cast<std::size_t>(cat)];
  for (ThreadId u = 0; u < num_threads_; ++u) {
    if (u == t) continue;  // same-thread accesses are sb- hence hb-ordered
    const std::size_t cells = (base + u) * kNumRaceCats;
    for (std::size_t k = 0; k < kNumRaceCats; ++k) {
      if (!conflicts[k]) continue;
      const RaceClocks::Cell& cell = rc.summary[cells + k];
      // An access at epoch e by u is hb-before t's current point iff
      // e <= C_t[u]; epoch 0 means "no such access yet".
      if (cell.clock > rc.vc[row + u]) {
        rc.pending.push_back(RaceRecord{
            loc,
            RaceAccess{u, cell.pc, static_cast<RaceCat>(k)},
            RaceAccess{t, pc, cat}});
      }
    }
  }
  RaceClocks::Cell& mine =
      rc.summary[(base + t) * kNumRaceCats + static_cast<std::size_t>(cat)];
  mine.clock = rc.vc[row + t];
  mine.pc = pc;
}

std::vector<OpId> MemState::observable(ThreadId t, LocId loc) const {
  std::vector<OpId> result;
  observable_into(t, loc, result);
  return result;
}

std::vector<OpId> MemState::observable_uncovered(ThreadId t, LocId loc) const {
  std::vector<OpId> result;
  observable_uncovered_into(t, loc, result);
  return result;
}

void MemState::observable_into(ThreadId t, LocId loc,
                               std::vector<OpId>& out) const {
  out.clear();
  const auto order = mo(loc);
  if (options_.model == MemoryModel::SC) {
    // Under the SC baseline only the mo-maximal write is readable.
    out.push_back(order.back());
    return;
  }
  out.assign(order.begin() + ops_[view_front(t, loc)].mo_pos, order.end());
}

void MemState::observable_uncovered_into(ThreadId t, LocId loc,
                                         std::vector<OpId>& out) const {
  observable_into(t, loc, out);
  if (options_.enforce_covered) {
    std::erase_if(out, [this](OpId w) { return ops_[w].covered; });
  }
}

OpId MemState::last_op(LocId loc) const {
  const auto order = mo(loc);
  RC11_REQUIRE(!order.empty(), "location without operations");
  return order.back();
}

void MemState::merge_view_into(OpId* target, std::span<const OpId> source,
                               std::optional<Component> only) const {
  for (LocId loc = 0; loc < source.size(); ++loc) {
    if (only && locs_->component(loc) != *only) continue;
    if (ops_[source[loc]].mo_pos > ops_[target[loc]].mo_pos) {
      target[loc] = source[loc];
    }
  }
}

void MemState::synchronise(ThreadId t, LocId loc, OpId w) {
  // tview' = tview ⊗ mview_w and ctview' = ctview ⊗ mview_w of Fig. 5,
  // realised as one merge over all locations (or, under the A1 ablation,
  // over the executing component's locations only).  The two rows live in
  // different arrays, so they never alias.
  const std::optional<Component> only =
      options_.cross_component_view_transfer
          ? std::nullopt
          : std::optional<Component>{locs_->component(loc)};
  merge_view_into(tview_row(t), mview(w), only);
  // hb gains the release/acquire edge exactly where the views merge.
  race_join(t, w);
}

Value MemState::read(ThreadId t, LocId loc, OpId w, MemOrder order,
                     std::uint32_t site_pc) {
  RC11_REQUIRE(order == MemOrder::Relaxed || order == MemOrder::Acquire ||
                   order == MemOrder::NonAtomic,
               "read order must be relaxed, acquire or non-atomic");
  RC11_REQUIRE(ops_[w].loc == loc, "read target on wrong location");
  RC11_REQUIRE(options_.model == MemoryModel::SC ||
                   ops_[w].mo_pos >= ops_[view_front(t, loc)].mo_pos,
               "read target not observable");
  const bool sync = (ops_[w].releasing && order == MemOrder::Acquire) ||
                    options_.model == MemoryModel::SC;
  // A relaxed or non-atomic read establishes no order (rf alone is not hb).
  if (sync) synchronise(t, loc, w);
  OpId& front = tview_row(t)[loc];
  if (ops_[w].mo_pos > ops_[front].mo_pos) front = w;
  if (race_ && site_pc != kNoSite && locs_->is_var(loc)) {
    race_access(t, loc,
                order == MemOrder::NonAtomic ? RaceCat::NaRead
                                             : RaceCat::AtomicRead,
                site_pc);
  }
  return ops_[w].value;
}

OpId MemState::append_op(Op op) {
  const auto id = static_cast<OpId>(ops_.size());
  ops_.push_back(std::move(op));
  // The row is set by snapshot_mview once the writer's view is final.
  mviews_.resize(mviews_.size() + num_locs(), kNoOp);
  if (race_) race_->msg.emplace_back();  // msg slot; filled iff releasing
  return id;
}

void MemState::snapshot_mview(OpId id, ThreadId t) {
  const std::size_t n = num_locs();
  std::copy_n(tview_.begin() + static_cast<std::ptrdiff_t>(t * n), n,
              mviews_.begin() + static_cast<std::ptrdiff_t>(id * n));
}

void MemState::mo_insert(LocId loc, std::size_t at, OpId id) {
  mo_.insert(mo_.begin() + static_cast<std::ptrdiff_t>(at), id);
  for (std::size_t l = loc + 1; l < mo_start_.size(); ++l) mo_start_[l] += 1;
}

OpId MemState::insert_after(LocId loc, Op op, OpId after) {
  const auto order = mo(loc);
  const std::uint32_t pos = ops_[after].mo_pos;
  RC11_REQUIRE(pos < order.size() && order[pos] == after,
               "modification order rank out of sync");
  // fresh_γ(q, q'): q < q' and q' precedes every existing timestamp after q.
  op.ts = (pos + 1 == order.size())
              ? ops_[after].ts.successor()
              : Rational::midpoint(ops_[after].ts, ops_[order[pos + 1]].ts);
  op.mo_pos = pos + 1;
  const OpId id = append_op(std::move(op));
  mo_insert(loc, mo_start_[loc] + pos + 1, id);
  const auto shifted = mo(loc);
  for (std::size_t i = pos + 2; i < shifted.size(); ++i) {
    ops_[shifted[i]].mo_pos = static_cast<std::uint32_t>(i);
  }
  return id;
}

OpId MemState::write(ThreadId t, LocId loc, Value v, MemOrder order, OpId after,
                     std::uint32_t site_pc) {
  RC11_REQUIRE(order == MemOrder::Relaxed || order == MemOrder::Release ||
                   order == MemOrder::NonAtomic,
               "write order must be relaxed, release or non-atomic");
  RC11_REQUIRE(locs_->is_var(loc), "write requires a plain variable");
  RC11_REQUIRE(!options_.enforce_covered || !ops_[after].covered,
               "cannot insert after a covered write");
  Op op;
  op.loc = loc;
  op.thread = t;
  op.kind = order == MemOrder::Release  ? OpKind::WriteRel
            : order == MemOrder::NonAtomic ? OpKind::WriteNa
                                           : OpKind::Write;
  op.value = v;
  op.releasing =
      order == MemOrder::Release || options_.model == MemoryModel::SC;
  const OpId id = insert_after(loc, std::move(op), after);
  tview_row(t)[loc] = id;
  snapshot_mview(id, t);
  if (race_) {
    // Check and record at the pre-increment epoch, then (for a releasing
    // write) publish the message and advance: the write itself must be
    // ordered before whoever acquires it, not concurrent with them.
    if (site_pc != kNoSite) {
      race_access(t, loc,
                  order == MemOrder::NonAtomic ? RaceCat::NaWrite
                                               : RaceCat::AtomicWrite,
                  site_pc);
    }
    if (ops_[id].releasing) race_attach(t, id);
  }
  return id;
}

OpId MemState::update(ThreadId t, LocId loc, OpId w, Value v,
                      std::uint32_t site_pc) {
  RC11_REQUIRE(locs_->is_var(loc), "update requires a plain variable");
  RC11_REQUIRE(!options_.enforce_covered || !ops_[w].covered,
               "cannot update a covered write");
  const bool sync = ops_[w].releasing;
  Op op;
  op.loc = loc;
  op.thread = t;
  op.kind = OpKind::Update;
  op.value = v;
  op.read_value = ops_[w].value;
  op.releasing = true;  // upd^RA is a releasing write
  const OpId id = insert_after(loc, std::move(op), w);
  ops_[w].covered = true;
  if (sync) synchronise(t, loc, w);
  tview_row(t)[loc] = id;
  snapshot_mview(id, t);
  if (race_) {
    if (site_pc != kNoSite) {
      race_access(t, loc, RaceCat::AtomicWrite, site_pc);
    }
    race_attach(t, id);  // upd^RA is releasing
  }
  return id;
}

OpId MemState::object_op(ThreadId t, LocId loc, OpKind kind, Value value,
                         bool releasing, std::optional<OpId> sync_with,
                         bool cover) {
  RC11_REQUIRE(!locs_->is_var(loc), "object_op requires an object location");
  Op op;
  op.loc = loc;
  op.thread = t;
  op.kind = kind;
  op.value = value;
  op.releasing = releasing;
  const auto order = mo(loc);
  op.mo_pos = static_cast<std::uint32_t>(order.size());
  op.ts = ops_[order.back()].ts.successor();
  const bool attach = op.releasing;
  const OpId id = append_op(std::move(op));
  mo_insert(loc, mo_start_[loc + 1], id);
  if (sync_with) {
    if (cover) {
      ops_[*sync_with].covered = true;
    }
    synchronise(t, loc, *sync_with);
  }
  tview_row(t)[loc] = id;
  snapshot_mview(id, t);
  if (race_ && attach) race_attach(t, id);
  return id;
}

void MemState::consume(ThreadId t, LocId loc, OpId w, bool sync) {
  RC11_REQUIRE(ops_[w].loc == loc, "consume target on wrong location");
  ops_[w].covered = true;
  if (sync) synchronise(t, loc, w);
  OpId& front = tview_row(t)[loc];
  if (ops_[w].mo_pos > ops_[front].mo_pos) front = w;
}

void MemState::permute_threads(const std::vector<ThreadId>& slot_of) {
  for (Op& op : ops_) {
    // Init operations are part of the initial state and stay fixed: the
    // semantics never reads an op's thread tag, but the canonical encoding
    // does, and a relabelled init would be a state no execution reaches.
    if (op.kind == OpKind::Init) continue;
    op.thread = slot_of[op.thread];
  }
  const std::size_t n = num_locs();
  std::vector<OpId> permuted(tview_.size());
  for (ThreadId t = 0; t < num_threads_; ++t) {
    std::copy_n(tview_.begin() + static_cast<std::ptrdiff_t>(t * n), n,
                permuted.begin() + static_cast<std::ptrdiff_t>(slot_of[t] * n));
  }
  tview_ = std::move(permuted);

  if (race_) {
    auto& rc = *race_;
    const std::size_t t_count = num_threads_;
    std::vector<std::uint32_t> nvc(rc.vc.size());
    for (std::size_t t = 0; t < t_count; ++t) {
      for (std::size_t u = 0; u < t_count; ++u) {
        nvc[slot_of[t] * t_count + slot_of[u]] = rc.vc[t * t_count + u];
      }
    }
    rc.vc = std::move(nvc);
    std::vector<std::uint32_t> scratch(t_count);
    for (auto& m : rc.msg) {
      if (m.empty()) continue;
      for (std::size_t u = 0; u < t_count; ++u) scratch[slot_of[u]] = m[u];
      m = scratch;
    }
    // Summary pcs stay as they are: symmetric threads run identical code, so
    // the pc of a relabelled access is the same instruction.
    std::vector<RaceClocks::Cell> nsum(rc.summary.size());
    const std::size_t num_locs = locs_->size();
    for (std::size_t loc = 0; loc < num_locs; ++loc) {
      for (std::size_t t = 0; t < t_count; ++t) {
        for (std::size_t k = 0; k < kNumRaceCats; ++k) {
          nsum[(loc * t_count + slot_of[t]) * kNumRaceCats + k] =
              rc.summary[(loc * t_count + t) * kNumRaceCats + k];
        }
      }
    }
    rc.summary = std::move(nsum);
    for (RaceRecord& r : rc.pending) {
      r.prior.thread = slot_of[r.prior.thread];
      r.current.thread = slot_of[r.current.thread];
    }
  }
}

void MemState::encode(std::vector<std::uint64_t>& out,
                      const EncodeView& view) const {
  const bool relabel = !view.slot_of.empty();
  const bool quotient = !view.tview_keep.empty();
  if (relabel && quotient) {
    encode_view<true, true>(out, view);
  } else if (relabel) {
    encode_view<true, false>(out, view);
  } else if (quotient) {
    encode_view<false, true>(out, view);
  } else {
    encode_view<false, false>(out, view);
  }
}

template <bool kRelabel, bool kQuotient>
void MemState::encode_view(std::vector<std::uint64_t>& out,
                           const EncodeView& view) const {
  const std::size_t num_locs = locs_->size();
  const std::size_t t_count = num_threads_;
  // The thread whose components fill slot `s`.
  const ThreadId* const thread_of = view.thread_of.data();
  const auto thread_at = [thread_of](ThreadId s) -> ThreadId {
    if constexpr (kRelabel) {
      return thread_of[s];
    } else {
      return s;
    }
  };
  // Every operation sits in one location's mo and has one modification view
  // entry per location.  The count is exact unless the keep mask drops
  // words; the output is then cut back to what was written.
  std::size_t words =
      num_locs + t_count * num_locs +
      ops_.size() * ((options_.canonical_timestamps ? 3 : 5) + num_locs);
  if (race_) {
    words += race_->vc.size() + race_->summary.size();
    for (const auto& m : race_->msg) words += m.size();
  }
  const std::size_t base = out.size();
  out.resize(base + words);
  std::uint64_t* w = out.data() + base;

  for (LocId loc = 0; loc < num_locs; ++loc) {
    const auto order = mo(loc);
    *w++ = order.size();
    for (const OpId id : order) {
      const Op& op = ops_[id];
      // Init operations keep their tag, as permute_threads leaves them.
      const bool keep_tag = !kRelabel || op.kind == OpKind::Init;
      *w++ = op_tag(op, keep_tag ? op.thread : view.slot_of[op.thread]);
      *w++ = static_cast<std::uint64_t>(op.value);
      *w++ = static_cast<std::uint64_t>(op.read_value);
      if (!options_.canonical_timestamps) {
        *w++ = static_cast<std::uint64_t>(op.ts.numerator());
        *w++ = static_cast<std::uint64_t>(op.ts.denominator());
      }
    }
  }
  for (ThreadId s = 0; s < num_threads_; ++s) {
    const std::size_t row =
        static_cast<std::size_t>(thread_at(s)) * num_locs;
    for (LocId loc = 0; loc < num_locs; ++loc) {
      if (kQuotient && view.tview_keep[row + loc] == 0) continue;
      *w++ = ops_[tview_[row + loc]].mo_pos;
    }
  }
  for (LocId loc = 0; loc < num_locs; ++loc) {
    const bool dead = kQuotient && locs_->is_var(loc);
    for (const OpId id : mo(loc)) {
      if (dead && !ops_[id].releasing) continue;
      for (const OpId v : mview(id)) *w++ = ops_[v].mo_pos;
    }
  }
  if (race_) {
    // Clock rows, releasing-op messages (presence mirrors the releasing bit
    // encoded above) and last-access summaries are part of state identity —
    // two states that agree on views but disagree on hb must not be merged,
    // or races reachable from only one of them would be lost.  Every key
    // keeps them whole.  `pending` is per-step scratch and deliberately
    // excluded.
    const auto& rc = *race_;
    for (ThreadId s = 0; s < num_threads_; ++s) {
      const std::size_t row =
          static_cast<std::size_t>(thread_at(s)) * t_count;
      for (ThreadId u = 0; u < num_threads_; ++u) {
        *w++ = rc.vc[row + thread_at(u)];
      }
    }
    for (LocId loc = 0; loc < num_locs; ++loc) {
      for (const OpId id : mo(loc)) {
        const auto& m = rc.msg[id];
        for (ThreadId s = 0; s < m.size(); ++s) *w++ = m[thread_at(s)];
      }
    }
    for (LocId loc = 0; loc < num_locs; ++loc) {
      for (ThreadId s = 0; s < num_threads_; ++s) {
        const auto* cells =
            &rc.summary[(loc * t_count + thread_at(s)) * kNumRaceCats];
        for (std::size_t k = 0; k < kNumRaceCats; ++k) {
          *w++ = (static_cast<std::uint64_t>(cells[k].clock) << 32) |
                 cells[k].pc;
        }
      }
    }
  }
  out.resize(static_cast<std::size_t>(w - out.data()));
}

std::string MemState::to_string() const {
  std::ostringstream os;
  const auto num_locs = locs_->size();
  for (LocId loc = 0; loc < num_locs; ++loc) {
    os << locs_->name(loc) << " ["
       << (locs_->component(loc) == Component::Client ? "client" : "library")
       << "]: ";
    for (const OpId id : mo(loc)) {
      const Op& op = ops_[id];
      switch (op.kind) {
        case OpKind::Init: os << "init(" << op.value << ")"; break;
        case OpKind::Write: os << "wr(" << op.value << ")"; break;
        case OpKind::WriteRel: os << "wrR(" << op.value << ")"; break;
        case OpKind::WriteNa: os << "wrNA(" << op.value << ")"; break;
        case OpKind::Update:
          os << "upd(" << op.read_value << "->" << op.value << ")";
          break;
        case OpKind::LockAcquire: os << "acq_" << op.value; break;
        case OpKind::LockRelease: os << "rel_" << op.value; break;
        case OpKind::StackPush: os << "push(" << op.value << ")"; break;
        case OpKind::QueueEnqueue: os << "enq(" << op.value << ")"; break;
      }
      os << "@t" << op.thread << "/ts=" << op.ts.to_string();
      if (op.covered) os << "/cvd";
      os << " ";
    }
    os << "| views:";
    for (ThreadId t = 0; t < num_threads_; ++t) {
      os << " t" << t << "->" << ops_[view_front(t, loc)].mo_pos;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rc11::memsem
