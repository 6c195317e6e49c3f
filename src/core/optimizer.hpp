// Post-construction slack optimization (an extension in the spirit of
// the paper's maintenance operations): a converged LagOver often parks
// lax nodes in shallow slots that only latency-strict nodes *need*;
// relocating leaves as deep as their constraints allow frees that
// shallow capacity. Only leaves without fanout move: a leaf with
// fanout would carry its own open slots deeper, trading shallow
// capacity rather than freeing it, so on populations where every
// consumer has fanout (Tf1, BiCorr, BiUnCorr) there is nothing to move.
// Measured caveat (bench_flash_crowd): freed shallow capacity does NOT
// speed up flash-crowd absorption, because the construction algorithms'
// orphaning-displacement move already reclaims shallow slots on demand
// — the optimizer's value is as an explicit headroom knob
// (shallow_free_slots) rather than a convergence accelerator.
#pragma once

#include <cstddef>
#include <vector>

#include "core/overlay.hpp"

namespace lagover {

struct OptimizeReport {
  int moves = 0;          ///< leaf relocations performed
  int passes = 0;         ///< sweeps until fixpoint
};

/// Repeatedly moves connected leaves without fanout to the deepest
/// position their latency constraint allows (strictly deeper than where
/// they are), until no move improves. Satisfaction is preserved by
/// construction: a move never violates the moved leaf (target depth <=
/// l) and cannot affect anyone else's depth (only leaves move). No move
/// lowers the free slots at or above any depth: it frees one slot at
/// the leaf's old depth and takes one deeper, and a leaf with fanout,
/// whose own open slots would sink with it, stays put.
///
/// `preserve_greedy_order` additionally requires the new parent to be
/// at least as strict (keeps Overlay::first_greedy_order_violation()
/// clean on greedy-built trees).
OptimizeReport optimize_shallow_capacity(Overlay& overlay,
                                         bool preserve_greedy_order = false);

/// Free child slots by the depth a new child would occupy:
/// profile[d] = open slots whose occupant would sit at depth d
/// (profile[1] = free source slots). Only online, connected hosts count.
std::vector<std::size_t> free_slot_depth_profile(const Overlay& overlay);

/// Sum of free slots at child-depth <= max_depth (the scarce capacity).
std::size_t shallow_free_slots(const Overlay& overlay, Delay max_depth);

}  // namespace lagover
