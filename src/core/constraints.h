// The channel reuse constraints of Section V-A.
//
// A transmission t_ij = u->v may take (slot s, offset c) iff:
//   1. Transmission conflict: t_ij shares no node with any transmission
//      already in slot s (any offset) — half-duplex radios.
//   2. Channel constraint:
//      a. rho == infinity: the cell (s, c) must be empty, or
//      b. rho < infinity: for every x->y already in the cell, u must be
//         at least rho hops from y AND x at least rho hops from v on the
//         channel-reuse graph.
#pragma once

#include <vector>

#include "common/error.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"
#include "tsch/transmission.h"

namespace wsan::core {

/// Constraint 1: true iff tx conflicts with none of `txs` (the
/// exhaustive search keeps its own per-slot vectors).
bool conflict_free(const tsch::transmission& tx,
                   const std::vector<tsch::transmission>& txs);

/// Constraint 1 against slot s of the schedule: true iff tx conflicts
/// with no transmission in any of the slot's cells. This is the
/// reference scan of naive find_slot and naive Eq. 1;
/// tsch::schedule::slot_conflict_free answers the same predicate in O(1)
/// from the occupancy index, and the scheduler's equivalence tests hold
/// the two to identical placements.
bool conflict_free(const tsch::transmission& tx, const tsch::schedule& sched,
                   slot_t s);

/// Constraint 2: true iff tx may join the cell under hop threshold rho
/// (pass k_infinite_hops for "no reuse allowed"). The one copy of 2b,
/// shared by find_slot's indexed and naive paths and the exhaustive
/// search; inline because the slot search probes it per occupied cell.
inline bool channel_constraint_ok(
    const tsch::transmission& tx,
    const std::vector<tsch::transmission>& cell_txs, int rho,
    const graph::hop_matrix& reuse_hops) {
  WSAN_REQUIRE(rho >= 0, "rho must be non-negative");
  if (cell_txs.empty()) return true;
  if (rho == k_infinite_hops) return false;  // 2a: cell must be empty
  for (const auto& other : cell_txs) {       // 2b
    if (reuse_hops.hops(tx.sender, other.receiver) < rho) return false;
    if (reuse_hops.hops(other.sender, tx.receiver) < rho) return false;
  }
  return true;
}

}  // namespace wsan::core
