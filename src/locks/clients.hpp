// rc11lib/locks/clients.hpp
//
// Client programs (with lock holes) used by the refinement experiments.
// All of them are synchronisation-free outside the lock itself, as required
// by the forward-simulation rule for synchronisation-free clients (Def. 8):
// every client access to shared client variables is relaxed.

#pragma once

#include "locks/lock_objects.hpp"

namespace rc11::locks {

using lang::ClientArtifacts;
using lang::Value;

/// The Fig. 7-shaped client: thread 0 acquires, writes d1 := 5 and d2 := 5
/// (relaxed) and releases; thread 1 acquires, reads both into r1, r2 and
/// releases.  The canonical witness for the mutual-exclusion + write-
/// visibility guarantees an implementation must preserve.
ClientProgram fig7_client(ClientArtifacts* artifacts = nullptr);

/// A bounded "most general" client: `threads` threads each run `rounds`
/// rounds of { ok <- Acquire(); x := <unique value>; r <- x; Release() }.
/// Sweeping threads × rounds approximates the universally quantified client
/// of Definition 7 within explorable bounds.
ClientProgram mgc_client(unsigned threads, unsigned rounds,
                         ClientArtifacts* artifacts = nullptr);

/// A shared-counter client: each of `threads` threads performs `rounds`
/// lock-protected increments of x (read then write, both relaxed — correct
/// only if the lock provides both mutual exclusion and write visibility).
ClientProgram counter_client(unsigned threads, unsigned rounds,
                             ClientArtifacts* artifacts = nullptr);

/// counter_client with a working section: each round acquires, loads x,
/// computes the new value through a chain of `work` local assignments, stores
/// it back and releases.  The benchmark family of the partial-order
/// reduction: the local chain interleaves with every other thread in the
/// full state graph but collapses to nothing under POR, so the reduction
/// factor grows with `work` (work = 1 degenerates to counter_client's shape
/// with a separate store register).
ClientProgram worker_client(unsigned threads, unsigned rounds, unsigned work,
                            ClientArtifacts* artifacts = nullptr);

}  // namespace rc11::locks
