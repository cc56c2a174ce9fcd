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
         a.target == b.target && a.capture_version == b.capture_version;
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

/// Writes thread `t`'s signature to `out`: 1 + registers + locations words.
/// Everything thread-indexed in the state, in a permutation-invariant
/// rendering: pc, register values, and the viewfront row as mo ranks (mo
/// sequences never move under the group action).  Signatures are equal
/// exactly when swapping the two threads fixes these components — the op
/// thread tags in the full encoding are what the tie enumeration decides.
void write_signature(const Config& cfg, ThreadId t, std::uint64_t* out) {
  *out++ = cfg.pc[t];
  for (const auto v : cfg.regs[t]) *out++ = static_cast<std::uint64_t>(v);
  const memsem::MemState& mem = cfg.mem;
  const auto num_locs = static_cast<memsem::LocId>(mem.locations().size());
  for (memsem::LocId loc = 0; loc < num_locs; ++loc) {
    *out++ = mem.op(mem.view_front(t, loc)).mo_pos;
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

SymmetryReducer::SymmetryReducer(const System& sys)
    : num_threads_(sys.num_threads()) {
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
  std::uint64_t group_size = 1;
  for (const auto& cls : classes_) {
    group_size *= capped_factorial(cls.size(), kMaxOrbit);
  }
  symmetric_ = !classes_.empty() && group_size <= kMaxOrbit;
  if (!symmetric_) {
    // Degenerate (no class of size >= 2) or past the orbit bound: the
    // reduction is a no-op and callers fall back to concrete encodings.
    classes_.clear();
  }
  class_begin_.push_back(0);
  std::size_t largest = 0;
  for (const auto& cls : classes_) {
    class_begin_.push_back(class_begin_.back() + cls.size());
    largest = std::max(largest, cls.size());
  }
  order_.resize(class_begin_.back());
  idx_.resize(largest);
  slot_of_.resize(num_threads_);
  thread_of_.resize(num_threads_);
}

void SymmetryReducer::canonicalize(const Config& cfg, AbstractKey& out) const {
  out.complete = true;
  // Permutations go into out.perms' existing inner vectors (a same-size
  // copy-assign allocates nothing); the list is cut to `found` at the end.
  std::size_t found = 0;
  const auto record = [&](const ThreadPerm& perm) {
    if (found < out.perms.size()) {
      out.perms[found] = perm;
    } else {
      out.perms.push_back(perm);
    }
    ++found;
  };
  ThreadPerm& slot_of = slot_of_;
  for (ThreadId t = 0; t < num_threads_; ++t) slot_of[t] = t;
  if (!symmetric_) {
    out.encoding.clear();
    cfg.encode_into(out.encoding);
    record(slot_of);
    out.perms.resize(found);
    return;
  }

  // Per class: order members by signature into the class's span of order_
  // (slot i of the class is its i-th smallest thread id), and decide each
  // tie range as it is found: enumerate it while the candidate product stays
  // within bounds, else keep its ascending-id order (a sound
  // under-approximation of the quotient).
  enumerated_.clear();
  std::uint64_t candidates = 1;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& members = classes_[c];
    const std::size_t n = members.size();
    // Member i's signature sits at sigs_[i * stride]: the class shares one
    // register file shape, so every member's signature has one length.
    const std::size_t stride =
        1 + cfg.regs[members[0]].size() + cfg.mem.locations().size();
    sigs_.resize(n * stride);
    for (std::size_t i = 0; i < n; ++i) {
      write_signature(cfg, members[i], sigs_.data() + i * stride);
    }
    const auto sig = [&](std::size_t i) { return sigs_.data() + i * stride; };
    const auto less = [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(sig(a), sig(a) + stride, sig(b),
                                          sig(b) + stride);
    };
    // Stable insertion sort; classes are tiny (kMaxOrbit bounds them at 8
    // members), and tied members stay ascending by thread id, which both
    // makes the result deterministic and leaves tie ranges in
    // next_permutation's start state.
    for (std::size_t i = 0; i < n; ++i) idx_[i] = i;
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t moving = idx_[i];
      std::size_t j = i;
      for (; j > 0 && less(moving, idx_[j - 1]); --j) idx_[j] = idx_[j - 1];
      idx_[j] = moving;
    }
    const std::size_t begin = class_begin_[c];
    for (std::size_t i = 0; i < n; ++i) order_[begin + i] = members[idx_[i]];
    std::size_t run = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && std::equal(sig(idx_[i]), sig(idx_[i]) + stride,
                              sig(idx_[run]))) {
        continue;
      }
      if (i - run >= 2) {
        const std::uint64_t f = capped_factorial(i - run, kMaxTieCandidates);
        if (candidates * f <= kMaxTieCandidates) {
          candidates *= f;
          enumerated_.push_back({begin + run, begin + i});
        } else {
          // A skipped group means `perms` may miss minimisers; callers
          // relying on stabiliser closure (canonical sleep masks) must see
          // that.
          out.complete = false;
        }
      }
      run = i;
    }
  }

  const auto try_candidate = [&] {
    // Threads outside every class stay fixed, so only members are rewritten.
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      for (std::size_t i = 0; i < classes_[c].size(); ++i) {
        slot_of[order_[class_begin_[c] + i]] = classes_[c][i];
      }
    }
    for (ThreadId t = 0; t < num_threads_; ++t) thread_of_[slot_of[t]] = t;
    candidate_.clear();
    cfg.encode_into(candidate_, {slot_of, thread_of_});
    if (found == 0 || candidate_ < out.encoding) {
      candidate_.swap(out.encoding);
      found = 0;
      record(slot_of);
    } else if (candidate_ == out.encoding) {
      record(slot_of);
    }
  };

  try_candidate();
  // Odometer over the enumerated tie groups: next_permutation wraps each
  // group back to its ascending start state, so each of the `candidates`
  // combinations is tried once.
  for (std::uint64_t k = 1; k < candidates; ++k) {
    for (const TieGroup& g : enumerated_) {
      if (std::next_permutation(
              order_.begin() + static_cast<std::ptrdiff_t>(g.begin),
              order_.begin() + static_cast<std::ptrdiff_t>(g.end))) {
        break;
      }
    }
    try_candidate();
  }
  out.perms.resize(found);
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
    cfg.encode_into(enc, {perm, thread_of});
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
