// findSlot(): earliest slot and channel offset complying with the
// channel reuse constraints (Section V-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/config.h"
#include "core/probe_counters.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"

namespace wsan::core {

struct slot_assignment {
  slot_t slot = k_invalid_slot;
  offset_t offset = k_invalid_offset;
};

/// Scans slots in [earliest, latest] for the first slot where tx is
/// conflict-free and at least one offset satisfies the channel
/// constraint under `rho`; picks the offset by `policy` (the paper uses
/// min_load: the channel with the fewest scheduled transmissions).
/// Returns nullopt when no slot in the window works.
///
/// Offset selection is deterministic: min_load takes the least-loaded
/// valid offset, max_reuse the most-loaded, and on equal load the
/// lowest offset index wins in every policy (first_fit is exactly that
/// rule). min_load stops probing once an empty cell appears — no valid
/// offset can beat load 0.
///
/// When `isolated` is non-null, transmissions over listed links only
/// accept empty cells, and cells holding a listed link's transmission
/// accept nobody else (reschedule-after-detection, Section VI).
///
/// With `use_index` (the default) the search runs over the schedule's
/// occupancy index a 64-slot word at a time: the endpoints' busy
/// bitsets give the conflict-free slots of a word at once, the
/// full-slot bitset rules out every slot without an empty cell when
/// rho is infinite, and each remaining candidate slot is judged whole —
/// every offset at once, from the cached loads and, at finite rho, the
/// cells' sender and receiver node masks against the endpoints' hop
/// balls (graph::hop_matrix::ball), so constraint 2b costs a few word
/// operations per cell instead of two distance lookups per occupant.
/// The naive scan, which reads only the cells (conflict_free over each
/// cell of the slot, then channel_constraint_ok one cell at a time),
/// remains as the reference oracle; both paths place identically.
/// `probes`, when non-null, accumulates hot-path counters, equal on
/// both paths: the indexed path adds the slots and cells the naive scan
/// would examine, in bulk. Finite rho needs every node id in the
/// schedule inside the hop matrix.
std::optional<slot_assignment> find_slot(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t latest, int rho,
    const graph::hop_matrix& reuse_hops,
    channel_policy policy = channel_policy::min_load,
    const link_set* isolated = nullptr,
    int management_slot_period = 0, bool use_index = true,
    probe_counters* probes = nullptr);

/// True iff the slot is reserved for management traffic under the given
/// reservation period (0 = nothing reserved).
inline bool is_management_slot(slot_t slot, int management_slot_period) {
  return management_slot_period > 0 &&
         slot % management_slot_period == 0;
}

/// The reserved management slots among the 64 slots of occupancy-index
/// bitset word `w` (0 when nothing is reserved).
inline std::uint64_t management_slot_bits(std::size_t w,
                                          int management_slot_period) {
  if (management_slot_period <= 0) return 0;
  constexpr int wb = tsch::schedule::k_word_bits;
  const auto base = static_cast<long long>(w) * wb;
  std::uint64_t bits = 0;
  for (long long k = (base + management_slot_period - 1) /
                     management_slot_period * management_slot_period;
       k < base + wb; k += management_slot_period)
    bits |= std::uint64_t{1} << (k - base);
  return bits;
}

}  // namespace wsan::core
