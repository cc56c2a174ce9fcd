// rc11lib/litmus/case_studies.hpp
//
// Classic mutual-exclusion protocols as verification case studies.  Both
// Peterson's and Dekker's algorithms contain a store-buffering shape
// ("publish my flag, then read the other's"), which release/acquire cannot
// order: under RC11 RAR both threads may enter the critical section, while
// under the SC baseline both algorithms are correct.  The framework decides
// this mechanically — and the refinement experiments show what to use
// instead (a verified lock library).

#pragma once

#include "lang/system.hpp"

namespace rc11::litmus {

/// A mutual-exclusion case study guarding a lost-update detector
/// (two threads each increment x once via read-then-write; every
/// mutual-exclusion violation shows up as a terminating run with x != 2).
struct MutexCaseStudy {
  std::string name;
  lang::System sys;
  lang::LocId x;  ///< the protected counter
};

/// Peterson's algorithm (flags + turn), all synchronisation release/acquire.
MutexCaseStudy peterson_counter();

/// Dekker's algorithm (flags + turn with polite back-off), release/acquire.
MutexCaseStudy dekker_counter();

/// True iff some terminating run of the case study loses an increment
/// (final x != 2) under the given semantics options.  `num_threads` follows
/// the engine::RunControl convention; the verdict is thread-count
/// independent (exploration is exhaustive either way).
bool increment_lost(const MutexCaseStudy& study,
                    const memsem::SemanticsOptions& options,
                    unsigned num_threads = 1);

/// A sense-reversing barrier for two threads: each thread publishes a datum,
/// arrives at the barrier (FAI on the arrival counter; the last arrival
/// flips the sense flag with a releasing write, the other spins with
/// acquiring reads), then reads the *other* thread's datum.
///
/// Unlike Peterson/Dekker this protocol is *correct under RC11 RAR*: the
/// FAI chain synchronises the arrivals (an update reading a releasing update
/// merges its view), so the sense flip carries both pre-barrier writes and
/// both threads read fresh data.  A positive counterpart to the broken
/// mutex protocols.
struct BarrierCaseStudy {
  lang::System sys;
  lang::Reg r0;  ///< thread 0's read of thread 1's datum
  lang::Reg r1;  ///< thread 1's read of thread 0's datum
};

BarrierCaseStudy barrier_exchange();

}  // namespace rc11::litmus
