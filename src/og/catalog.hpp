// rc11lib/og/catalog.hpp
//
// The paper's two worked verification examples, packaged as reusable
// artifacts: the program, the registers/locations involved, and the proof
// outline whose validity the paper establishes deductively (Lemma 4) and
// which this library checks over the reachable state space.
//
//   * Figure 3: message passing through the synchronising stack —
//     conditional-observation assertions carry the library synchronisation
//     guarantee into the client.
//
//   * Figure 7: two threads exchanging data under the abstract lock —
//     mutual exclusion plus write visibility, with the rl register recording
//     the version of thread 2's acquire (rl ∈ {1, 3}).
//
// Each factory also exposes a deliberately broken variant used by negative
// tests and benchmarks: outlines that claim too much must be rejected.

#pragma once

#include "og/proof_outline.hpp"

namespace rc11::og {

using lang::LocId;
using lang::Reg;
using lang::System;

/// Figure 3: message passing via the synchronising stack.
struct Fig3Example {
  System sys;
  LocId d;  ///< client data variable
  LocId s;  ///< library stack
  Reg r1;   ///< pop result (thread 2)
  Reg r2;   ///< data read (thread 2)
  ProofOutline outline;
};

/// The Fig. 3 program with its (valid) proof outline.
Fig3Example make_fig3();

/// The same program with an outline claiming the *stale* postcondition
/// r2 = 0 — must be rejected by the checker.
Fig3Example make_fig3_broken();

/// Figure 7: data exchange under the abstract lock.
struct Fig7Example {
  System sys;
  LocId d1, d2;  ///< client data variables
  LocId l;       ///< library lock
  Reg rl;        ///< version of thread 2's acquire (1 or 3)
  Reg r1, r2;    ///< thread 2's reads of d1, d2
  ProofOutline outline;
};

/// The Fig. 7 program with its (valid) proof outline, including the paper's
/// invariant Inv = ¬(pc1 ∈ CS ∧ pc2 ∈ CS) ∧ rl ∈ {1, 3}.
Fig7Example make_fig7();

/// The Fig. 7 program with an outline wrongly claiming thread 2 always reads
/// fresh data (rl = 1 ⇒ r1 = 5) — must be rejected.
Fig7Example make_fig7_broken();

}  // namespace rc11::og
