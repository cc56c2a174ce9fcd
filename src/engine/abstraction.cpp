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

/// The identity abstraction: key == concrete canonical encoding.
class ConcreteAbstraction final : public StateAbstraction {
 public:
  [[nodiscard]] Kind kind() const noexcept override { return Kind::Concrete; }
  [[nodiscard]] bool nontrivial() const noexcept override { return false; }

  void key(const Config& cfg, AbstractKey& out) const override {
    out.encoding.clear();
    out.perms.clear();
    out.complete = true;
    cfg.encode_into(out.encoding);
  }

  [[nodiscard]] std::unique_ptr<StateAbstraction> clone() const override {
    return std::make_unique<ConcreteAbstraction>();
  }
};

/// The thread-permutation orbit quotient (engine/symmetry.hpp), wrapped.
/// The reducer's canonicalisation scratch makes instances worker-local (see
/// clone()).
class SymmetryAbstraction final : public StateAbstraction {
 public:
  explicit SymmetryAbstraction(const System& sys) : sys_(&sys), reducer_(sys) {}

  [[nodiscard]] Kind kind() const noexcept override { return Kind::Symmetry; }
  [[nodiscard]] bool nontrivial() const noexcept override {
    return reducer_.symmetric();
  }

  void key(const Config& cfg, AbstractKey& out) const override {
    reducer_.canonicalize(cfg, out);
  }

  [[nodiscard]] std::unique_ptr<StateAbstraction> clone() const override {
    return std::make_unique<SymmetryAbstraction>(*sys_);
  }

 private:
  const System* sys_;
  SymmetryReducer reducer_;
};

/// The execution-graph quotient (see the header comment).  Construction
/// runs one backward data-flow pass per thread over the flat CFG:
///
///   access[t][pc]  — the locations thread t can still touch from pc (its
///                    viewfront entries for them constrain enabled steps);
///   exports[t][pc] — whether t can still reach a view-exporting
///                    instruction (releasing store, RMW, object method),
///                    each of which snapshots t's whole viewfront row into
///                    a modification view the quotient keeps.
///
/// Both are reachability properties, so they only shrink along transitions
/// — the monotonicity the bisimulation argument needs.
class RfQuotientAbstraction final : public StateAbstraction {
 public:
  RfQuotientAbstraction(const System& sys, const RfPins& pins)
      : sys_(&sys),
        num_threads_(sys.num_threads()),
        num_locs_(static_cast<lang::LocId>(sys.locations().size())) {
    access_.resize(num_threads_);
    exports_.resize(num_threads_);
    for (lang::ThreadId t = 0; t < num_threads_; ++t) {
      analyze_thread(t);
    }
    for (const auto& [t, loc] : pins.entries) {
      support::require(t < num_threads_ && loc < num_locs_,
                       "rf-quotient pin names thread ", t, " / location ",
                       loc, ", which this system does not have");
      // A pinned entry is live at every program point of its thread.
      auto& acc = access_[t];
      const std::size_t points = acc.size() / num_locs_;
      for (std::size_t pc = 0; pc < points; ++pc) {
        acc[pc * num_locs_ + loc] = 1;
      }
    }
  }

  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::RfQuotient;
  }
  [[nodiscard]] bool nontrivial() const noexcept override { return true; }

  void key(const Config& cfg, AbstractKey& out) const override {
    out.perms.clear();
    out.complete = true;
    // The keep mask is a pure function of the pcs, which the key carries
    // ahead of the memory block, so any two equal keys agree on which
    // viewfront entries the projection dropped.
    keep_.assign(static_cast<std::size_t>(num_threads_) * num_locs_, 0);
    for (lang::ThreadId t = 0; t < num_threads_; ++t) {
      const std::size_t points = exports_[t].size();
      const std::size_t pc =
          std::min<std::size_t>(cfg.pc[t], points - 1);
      std::uint8_t* row = keep_.data() + static_cast<std::size_t>(t) * num_locs_;
      if (exports_[t][pc] != 0) {
        // The thread can still snapshot its whole view row into a kept
        // modification view; every entry stays observable.
        std::memset(row, 1, num_locs_);
      } else {
        std::memcpy(row, access_[t].data() + pc * num_locs_, num_locs_);
      }
    }
    out.encoding.clear();
    cfg.encode_into(out.encoding, {.tview_keep = keep_});
  }

  [[nodiscard]] std::unique_ptr<StateAbstraction> clone() const override {
    return std::make_unique<RfQuotientAbstraction>(*this);
  }

 private:
  void analyze_thread(lang::ThreadId t) {
    const auto& code = sys_->code(t);
    const std::size_t n = code.size();
    auto& acc = access_[t];
    auto& exp = exports_[t];
    acc.assign((n + 1) * num_locs_, 0);  // index n = terminated
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
        std::uint8_t* row = acc.data() + pc * num_locs_;
        const auto flow = [&](std::size_t succ) {
          want_export |= exp[succ];
          const std::uint8_t* srow = acc.data() + succ * num_locs_;
          for (lang::LocId l = 0; l < num_locs_; ++l) {
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
        switch (in.kind) {
          case lang::IKind::Load:
            if (row[in.loc] == 0) {
              row[in.loc] = 1;
              changed = true;
            }
            break;
          case lang::IKind::Store:
            if (row[in.loc] == 0) {
              row[in.loc] = 1;
              changed = true;
            }
            // Only a releasing store snapshots a *kept* modification view;
            // relaxed and non-atomic stores produce dead mviews.
            if (in.order == memsem::MemOrder::Release) want_export = 1;
            break;
          case lang::IKind::Cas:
          case lang::IKind::Fai:
          case lang::IKind::LockAcquire:
          case lang::IKind::LockRelease:
          case lang::IKind::Push:
          case lang::IKind::Pop:
            // RMWs are always releasing; object methods attach their view
            // to object-location operations, whose mviews are always kept.
            if (row[in.loc] == 0) {
              row[in.loc] = 1;
              changed = true;
            }
            want_export = 1;
            break;
          case lang::IKind::Assign:
          case lang::IKind::Branch:
          case lang::IKind::Jump:
            break;
        }
        if (want_export != exp[pc]) {
          exp[pc] = want_export;
          changed = true;
        }
      }
    }
  }

  const System* sys_;
  lang::ThreadId num_threads_;
  lang::LocId num_locs_;
  /// Per thread: (code size + 1) rows of num_locs bytes.
  std::vector<std::vector<std::uint8_t>> access_;
  /// Per thread: (code size + 1) bytes.
  std::vector<std::vector<std::uint8_t>> exports_;
  mutable std::vector<std::uint8_t> keep_;  ///< per-state scratch
};

}  // namespace

std::unique_ptr<StateAbstraction> make_concrete_abstraction() {
  return std::make_unique<ConcreteAbstraction>();
}

std::unique_ptr<StateAbstraction> make_symmetry_abstraction(const System& sys) {
  return std::make_unique<SymmetryAbstraction>(sys);
}

std::unique_ptr<StateAbstraction> make_rf_quotient_abstraction(
    const System& sys, const RfPins& pins) {
  return std::make_unique<RfQuotientAbstraction>(sys, pins);
}

}  // namespace rc11::engine
