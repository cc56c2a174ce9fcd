// rc11lib/engine/symmetry.cpp — see symmetry.hpp for the design.

#include "engine/symmetry.hpp"

#include <algorithm>
#include <set>

#include "support/diagnostics.hpp"

namespace rc11::engine {

namespace {

/// Field-by-field instruction equality.  Expr carries no operator==, but
/// to_string() is a faithful rendering of the expression tree, so textual
/// equality of rendered operands is exactly "identical program text".
bool expr_equal(const lang::Expr& a, const lang::Expr& b) {
  if (a.valid() != b.valid()) return false;
  if (!a.valid()) return true;
  return a.to_string() == b.to_string();
}

bool instr_equal(const lang::Instr& a, const lang::Instr& b) {
  return a.kind == b.kind && a.dst == b.dst && a.has_dst == b.has_dst &&
         a.loc == b.loc && expr_equal(a.e1, b.e1) && expr_equal(a.e2, b.e2) &&
         expr_equal(a.e3, b.e3) && a.order == b.order &&
         a.target == b.target && a.capture_version == b.capture_version &&
         a.label == b.label;
}

/// Threads are interchangeable iff code and register-file shape coincide.
/// Register *names* are display-only and deliberately ignored; components and
/// initial values are semantic (refinement projection, initial state).
bool threads_equal(const System& sys, ThreadId a, ThreadId b) {
  const auto& ca = sys.code(a);
  const auto& cb = sys.code(b);
  if (ca.size() != cb.size()) return false;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (!instr_equal(ca[i], cb[i])) return false;
  }
  if (sys.num_regs(a) != sys.num_regs(b)) return false;
  for (lang::RegId r = 0; r < sys.num_regs(a); ++r) {
    if (sys.reg_component(a, r) != sys.reg_component(b, r)) return false;
    if (sys.reg_initial(a, r) != sys.reg_initial(b, r)) return false;
  }
  return true;
}

/// Appends the full permuted state encoding of `cfg` under `slot_of` to
/// `out`.  Word-for-word the layout of Config::encode_into + MemState::encode
/// with thread-indexed components read in slot order and op thread tags
/// relabelled (init tags excepted — see MemState::permute_threads) — the
/// identity permutation reproduces the concrete encoding exactly (tested),
/// so quotiented and unquotiented runs share one encoding space.
void encode_permuted_into(const Config& cfg,
                          const std::vector<ThreadId>& slot_of,
                          const std::vector<ThreadId>& thread_of,
                          std::vector<std::uint64_t>& out) {
  const auto num_threads = static_cast<ThreadId>(cfg.pc.size());
  for (ThreadId s = 0; s < num_threads; ++s) {
    out.push_back(cfg.pc[thread_of[s]]);
  }
  for (ThreadId s = 0; s < num_threads; ++s) {
    const auto& file = cfg.regs[thread_of[s]];
    out.push_back(file.size());
    for (const auto v : file) out.push_back(static_cast<std::uint64_t>(v));
  }
  const memsem::MemState& mem = cfg.mem;
  const auto num_locs = static_cast<memsem::LocId>(mem.locations().size());
  const bool canonical_ts = mem.options().canonical_timestamps;
  for (memsem::LocId loc = 0; loc < num_locs; ++loc) {
    const auto order = mem.mo(loc);
    out.push_back(order.size());
    for (const memsem::OpId id : order) {
      const memsem::Op& op = mem.op(id);
      std::uint64_t tag = static_cast<std::uint64_t>(op.kind);
      // Init operations keep their tag, exactly as MemState::permute_threads
      // does: they are part of the initial state, which the group action
      // must fix (a relabelled init encodes a state no execution reaches).
      tag |= static_cast<std::uint64_t>(op.kind == memsem::OpKind::Init
                                            ? op.thread
                                            : slot_of[op.thread])
             << 8;
      tag |= static_cast<std::uint64_t>(op.releasing) << 40;
      tag |= static_cast<std::uint64_t>(op.covered) << 41;
      out.push_back(tag);
      out.push_back(static_cast<std::uint64_t>(op.value));
      out.push_back(static_cast<std::uint64_t>(op.read_value));
      if (!canonical_ts) {
        out.push_back(static_cast<std::uint64_t>(op.ts.numerator()));
        out.push_back(static_cast<std::uint64_t>(op.ts.denominator()));
      }
    }
  }
  for (ThreadId s = 0; s < num_threads; ++s) {
    const ThreadId t = thread_of[s];
    for (memsem::LocId loc = 0; loc < num_locs; ++loc) {
      out.push_back(mem.op(mem.view_front(t, loc)).mo_pos);
    }
  }
  for (memsem::LocId loc = 0; loc < num_locs; ++loc) {
    for (const memsem::OpId id : mem.mo(loc)) {
      for (const memsem::OpId v : mem.mview(id)) {
        out.push_back(mem.op(v).mo_pos);
      }
    }
  }
}

std::uint64_t capped_factorial(std::size_t n, std::uint64_t cap) {
  std::uint64_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) {
    f *= i;
    if (f > cap) return cap + 1;
  }
  return f;
}

}  // namespace

SymmetryReducer::SymmetryReducer(const System& sys) : sys_(&sys) {
  num_threads_ = sys.num_threads();
  in_class_.assign(num_threads_, false);
  std::vector<bool> assigned(num_threads_, false);
  for (ThreadId t = 0; t < num_threads_; ++t) {
    if (assigned[t]) continue;
    std::vector<ThreadId> members{t};
    for (ThreadId u = t + 1; u < num_threads_; ++u) {
      if (!assigned[u] && threads_equal(sys, t, u)) {
        assigned[u] = true;
        members.push_back(u);
      }
    }
    if (members.size() >= 2) classes_.push_back(std::move(members));
  }
  for (const auto& cls : classes_) {
    group_size_ *= capped_factorial(cls.size(), kMaxOrbit);
    for (const ThreadId t : cls) in_class_[t] = true;
  }
  symmetric_ = !classes_.empty() && group_size_ <= kMaxOrbit;
  if (!symmetric_) {
    // Degenerate (no class of size >= 2) or past the orbit bound: the
    // reduction is a no-op and callers fall back to concrete encodings.
    classes_.clear();
    group_size_ = 1;
    in_class_.assign(num_threads_, false);
  }
}

void SymmetryReducer::thread_signature(const Config& cfg, ThreadId t,
                                       std::vector<std::uint64_t>& out) const {
  // Everything thread-indexed in the state, in a permutation-invariant
  // rendering: pc, register values, and the viewfront row as mo ranks (mo
  // sequences never move under the group action).  Signatures are equal
  // exactly when swapping the two threads fixes these components — the op
  // thread tags in the full encoding are what the tie enumeration decides.
  out.clear();
  out.push_back(cfg.pc[t]);
  for (const auto v : cfg.regs[t]) out.push_back(static_cast<std::uint64_t>(v));
  const memsem::MemState& mem = cfg.mem;
  const auto num_locs = static_cast<memsem::LocId>(mem.locations().size());
  for (memsem::LocId loc = 0; loc < num_locs; ++loc) {
    out.push_back(mem.op(mem.view_front(t, loc)).mo_pos);
  }
}

void SymmetryReducer::canonicalize(const Config& cfg, Canonical& out) const {
  out.encoding.clear();
  out.perms.clear();
  out.complete = true;
  ThreadPerm& slot_of = perm_scratch_;
  slot_of.resize(num_threads_);
  for (ThreadId t = 0; t < num_threads_; ++t) slot_of[t] = t;
  if (!symmetric_) {
    cfg.encode_into(out.encoding);
    out.perms.push_back(slot_of);
    return;
  }

  // Per class: order members by signature, recording tie ranges.  `orders`
  // holds, per class, the member list in slot order (slot i of the class is
  // its i-th smallest thread id).
  struct TieGroup {
    std::size_t cls;
    std::size_t begin;
    std::size_t end;  // exclusive; end - begin >= 2
  };
  std::vector<std::vector<ThreadId>> orders(classes_.size());
  std::vector<TieGroup> ties;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& members = classes_[c];
    auto& order = orders[c];
    order = members;
    // Insertion-sort by signature; class sizes are tiny (<= 8) and stable
    // order keeps tied members ascending by thread id, which both makes the
    // result deterministic and leaves tie ranges in next_permutation's start
    // state.
    std::vector<std::vector<std::uint64_t>> sigs(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      thread_signature(cfg, members[i], sigs[i]);
    }
    std::vector<std::size_t> idx(members.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return sigs[a] < sigs[b];
                     });
    for (std::size_t i = 0; i < idx.size(); ++i) order[i] = members[idx[i]];
    std::size_t run = 0;
    for (std::size_t i = 1; i <= idx.size(); ++i) {
      if (i == idx.size() || sigs[idx[i]] != sigs[idx[run]]) {
        if (i - run >= 2) ties.push_back({c, run, i});
        run = i;
      }
    }
  }

  // Cap the tie blow-up: enumerate groups while the candidate product stays
  // within bounds; oversized groups keep their ascending-id order (a sound
  // under-approximation of the quotient).
  std::vector<TieGroup> enumerated;
  std::uint64_t candidates = 1;
  for (const TieGroup& g : ties) {
    const std::uint64_t f =
        capped_factorial(g.end - g.begin, kMaxTieCandidates);
    if (candidates * f <= kMaxTieCandidates) {
      candidates *= f;
      enumerated.push_back(g);
    } else {
      // A skipped group means `perms` may miss minimisers; callers relying
      // on stabiliser closure (canonical sleep masks) must see that.
      out.complete = false;
    }
  }

  const auto build_perm = [&] {
    for (ThreadId t = 0; t < num_threads_; ++t) slot_of[t] = t;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      for (std::size_t i = 0; i < classes_[c].size(); ++i) {
        slot_of[orders[c][i]] = classes_[c][i];
      }
    }
  };
  ThreadPerm thread_of(num_threads_);
  const auto try_candidate = [&] {
    build_perm();
    for (ThreadId t = 0; t < num_threads_; ++t) thread_of[slot_of[t]] = t;
    candidate_.clear();
    encode_permuted_into(cfg, slot_of, thread_of, candidate_);
    if (out.perms.empty() || candidate_ < out.encoding) {
      out.encoding = candidate_;
      out.perms.clear();
      out.perms.push_back(slot_of);
    } else if (candidate_ == out.encoding) {
      out.perms.push_back(slot_of);
    }
  };

  try_candidate();
  if (!enumerated.empty()) {
    // Odometer over the tie groups; next_permutation wraps each group back
    // to its ascending start state, so every combination is visited once.
    while (true) {
      std::size_t g = 0;
      for (; g < enumerated.size(); ++g) {
        auto& order = orders[enumerated[g].cls];
        if (std::next_permutation(
                order.begin() + static_cast<std::ptrdiff_t>(enumerated[g].begin),
                order.begin() + static_cast<std::ptrdiff_t>(enumerated[g].end))) {
          break;
        }
      }
      if (g == enumerated.size()) break;
      try_candidate();
    }
  }
}

std::uint64_t SymmetryReducer::mask_to_canonical(
    std::uint64_t mask, const std::vector<ThreadPerm>& perms) {
  std::uint64_t result = ~0ULL;
  for (const ThreadPerm& perm : perms) {
    std::uint64_t image = 0;
    for (ThreadId t = 0; t < perm.size(); ++t) {
      if (mask & (1ULL << t)) image |= 1ULL << perm[t];
    }
    result &= image;
  }
  return result;
}

std::uint64_t SymmetryReducer::mask_from_canonical(std::uint64_t mask,
                                                   const ThreadPerm& perm) {
  std::uint64_t result = 0;
  for (ThreadId t = 0; t < perm.size(); ++t) {
    if (mask & (1ULL << perm[t])) result |= 1ULL << t;
  }
  return result;
}

Config SymmetryReducer::permuted(const Config& cfg,
                                 const ThreadPerm& perm) const {
  Config result = cfg;
  for (ThreadId t = 0; t < num_threads_; ++t) {
    result.pc[perm[t]] = cfg.pc[t];
    result.regs[perm[t]] = cfg.regs[t];
  }
  result.mem.permute_threads(perm);
  return result;
}

void SymmetryReducer::for_each_orbit(
    const Config& cfg,
    const std::function<void(const Config&, const ThreadPerm&)>& fn) const {
  if (!symmetric_) {
    ThreadPerm identity(cfg.pc.size());
    for (ThreadId t = 0; t < identity.size(); ++t) identity[t] = t;
    fn(cfg, identity);
    return;
  }
  std::set<std::vector<std::uint64_t>> seen;
  ThreadPerm thread_of(num_threads_);
  std::vector<std::uint64_t> enc;
  for_each_perm([&](const ThreadPerm& perm) {
    for (ThreadId t = 0; t < num_threads_; ++t) thread_of[perm[t]] = t;
    enc.clear();
    encode_permuted_into(cfg, perm, thread_of, enc);
    if (!seen.insert(enc).second) return;
    // The identity comes first (for_each_perm starts from ascending images),
    // so fn(cfg, id) leads and the materialisation below is skipped for it.
    bool identity = true;
    for (ThreadId t = 0; t < num_threads_; ++t) {
      if (perm[t] != t) {
        identity = false;
        break;
      }
    }
    if (identity) {
      fn(cfg, perm);
    } else {
      fn(permuted(cfg, perm), perm);
    }
  });
}

void SymmetryReducer::for_each_perm(
    const std::function<void(const ThreadPerm&)>& fn) const {
  ThreadPerm perm(num_threads_);
  for (ThreadId t = 0; t < num_threads_; ++t) perm[t] = t;
  if (!symmetric_) {
    fn(perm);
    return;
  }
  // Per-class image lists, each run through next_permutation odometer-style;
  // images start ascending so the first emitted permutation is the identity.
  std::vector<std::vector<ThreadId>> images;
  images.reserve(classes_.size());
  for (const auto& cls : classes_) images.push_back(cls);
  const auto emit = [&] {
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      for (std::size_t i = 0; i < classes_[c].size(); ++i) {
        perm[classes_[c][i]] = images[c][i];
      }
    }
    fn(perm);
  };
  emit();
  while (true) {
    std::size_t c = 0;
    for (; c < images.size(); ++c) {
      if (std::next_permutation(images[c].begin(), images[c].end())) break;
    }
    if (c == images.size()) break;
    emit();
  }
}

}  // namespace rc11::engine
