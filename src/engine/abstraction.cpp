#include "engine/abstraction.hpp"

#include <algorithm>
#include <cstring>

#include "support/diagnostics.hpp"

namespace rc11::engine {

bool key_is_identity(const AbstractKey& key) {
  if (key.perms.empty()) return true;
  const ThreadPerm& perm = key.perms.front();
  for (std::size_t t = 0; t < perm.size(); ++t) {
    if (perm[t] != t) return false;
  }
  return true;
}

std::uint64_t mask_to_abstract(std::uint64_t mask, const AbstractKey& key) {
  if (key.perms.empty()) return mask;
  return SymmetryReducer::mask_to_canonical(mask, key.perms);
}

std::uint64_t mask_from_abstract(std::uint64_t mask, const AbstractKey& key) {
  if (key.perms.empty()) return mask;
  return SymmetryReducer::mask_from_canonical(mask, key.perms.front());
}

namespace {

/// The rf quotient's liveness tables for one thread (see the header
/// comment), by one backward data-flow pass over the flat CFG:
///
///   acc[pc * num_locs + l] — whether the thread can still access l from pc
///                            (its viewfront entry for l constrains enabled
///                            steps);
///   exp[pc]                — whether it can still reach a view-exporting
///                            instruction, which snapshots its whole
///                            viewfront row into a modification view the
///                            quotient keeps.
///
/// Both are reachability properties, so they only shrink along transitions
/// — the monotonicity the bisimulation argument needs.
void analyze_thread(const std::vector<lang::Instr>& code, lang::LocId num_locs,
                    std::vector<std::uint8_t>& acc,
                    std::vector<std::uint8_t>& exp) {
  const std::size_t n = code.size();
  acc.assign((n + 1) * num_locs, 0);  // index n = terminated
  exp.assign(n + 1, 0);
  // Backward fixpoint over the flat CFG (Branch → {pc+1, target}, Jump →
  // {target}, everything else → {pc+1}; the terminal point has no
  // successors).  Loops make a single pass insufficient; iterate to a
  // fixpoint — thread code is litmus-sized, so this is cheap.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t pc = n; pc-- > 0;) {
      std::uint8_t want_export = exp[pc];
      std::uint8_t* row = acc.data() + pc * num_locs;
      const auto flow = [&](std::size_t succ) {
        want_export |= exp[succ];
        const std::uint8_t* srow = acc.data() + succ * num_locs;
        for (lang::LocId l = 0; l < num_locs; ++l) {
          if (srow[l] != 0 && row[l] == 0) {
            row[l] = 1;
            changed = true;
          }
        }
      };
      const lang::Instr& in = code[pc];
      switch (in.kind) {
        case lang::IKind::Jump:
          flow(in.target);
          break;
        case lang::IKind::Branch:
          flow(pc + 1);
          flow(in.target);
          break;
        default:
          flow(pc + 1);
          break;
      }
      const lang::StepMeta fp = lang::access_footprint(in);
      if (fp.access != memsem::AccessKind::Local && row[fp.loc] == 0) {
        row[fp.loc] = 1;
        changed = true;
      }
      // Releasing stores, RMWs and object methods snapshot a *kept*
      // modification view; relaxed and non-atomic stores produce dead
      // mviews, and loads produce none.
      if (memsem::writes_location(fp.access) && fp.sync) want_export = 1;
      if (want_export != exp[pc]) {
        exp[pc] = want_export;
        changed = true;
      }
    }
  }
}

}  // namespace

StateAbstraction::StateAbstraction(const System& sys,
                                   const Reduction& reduction,
                                   const RfPins& pins) {
  if (reduction.symmetry) {
    symmetry_.emplace(sys);
    if (!symmetry_->symmetric()) symmetry_.reset();
    return;
  }
  if (!reduction.rf_quotient) return;
  rf_quotient_ = true;
  const lang::ThreadId num_threads = sys.num_threads();
  num_locs_ = static_cast<lang::LocId>(sys.locations().size());
  access_.resize(num_threads);
  exports_.resize(num_threads);
  for (lang::ThreadId t = 0; t < num_threads; ++t) {
    analyze_thread(sys.code(t), num_locs_, access_[t], exports_[t]);
  }
  for (const auto& [t, loc] : pins.entries) {
    support::require(t < num_threads && loc < num_locs_,
                     "rf-quotient pin names thread ", t, " / location ", loc,
                     ", which this system does not have");
    // A pinned entry is live at every program point of its thread.
    auto& acc = access_[t];
    const std::size_t points = acc.size() / num_locs_;
    for (std::size_t pc = 0; pc < points; ++pc) {
      acc[pc * num_locs_ + loc] = 1;
    }
  }
}

void StateAbstraction::key(const Config& cfg, AbstractKey& out) const {
  if (symmetry_) {
    symmetry_->canonicalize(cfg, out);
    return;
  }
  out.perms.clear();
  out.complete = true;
  out.encoding.clear();
  if (!rf_quotient_) {
    cfg.encode_into(out.encoding);
    return;
  }
  // The keep mask is a pure function of the pcs, which the key carries
  // ahead of the memory block, so any two equal keys agree on which
  // viewfront entries the projection dropped.
  const auto num_threads = static_cast<lang::ThreadId>(exports_.size());
  keep_.assign(static_cast<std::size_t>(num_threads) * num_locs_, 0);
  for (lang::ThreadId t = 0; t < num_threads; ++t) {
    const std::size_t points = exports_[t].size();
    const std::size_t pc = std::min<std::size_t>(cfg.pc[t], points - 1);
    std::uint8_t* row = keep_.data() + static_cast<std::size_t>(t) * num_locs_;
    if (exports_[t][pc] != 0) {
      // The thread can still snapshot its whole view row into a kept
      // modification view; every entry stays observable.
      std::memset(row, 1, num_locs_);
    } else {
      std::memcpy(row, access_[t].data() + pc * num_locs_, num_locs_);
    }
  }
  cfg.encode_into(out.encoding, {.tview_keep = keep_});
}

std::unique_ptr<StateAbstraction> make_concrete_abstraction() {
  return std::make_unique<StateAbstraction>();
}

std::unique_ptr<StateAbstraction> make_symmetry_abstraction(const System& sys) {
  Reduction symmetry;
  symmetry.symmetry = true;
  return std::make_unique<StateAbstraction>(sys, symmetry);
}

}  // namespace rc11::engine
