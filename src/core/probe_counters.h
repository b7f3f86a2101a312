// Hot-path instrumentation for the scheduler's slot search and laxity
// computation. The counters distinguish work done by scanning cell
// contents from work answered by the schedule's occupancy index, so
// benches can report how much the index actually saves.
//
// This is the hot-path accumulator only — a plain per-trial value with
// no atomics. The observability surface for these totals is the obs
// metrics registry (core.probes.*), flushed once per schedule_flows run
// and once per delta_scheduler admit or evict, and read via --metrics
// FILE / `wsanctl obs`; the old tsch::probe_stats
// façade that mirrored them was removed after its deprecation release
// (DESIGN.md "Observability").
#pragma once

#include <cstddef>

namespace wsan::core {

struct probe_counters {
  /// Candidate slots examined for the transmission conflict constraint
  /// (find_slot) or for laxity unusable-slot accounting.
  std::size_t slots_scanned = 0;
  /// (slot, offset) cells examined for the channel constraint.
  std::size_t cells_probed = 0;
  /// Constraint checks answered by the occupancy index (bitset lookups
  /// and cell loads) instead of a transmission-list scan.
  std::size_t index_hits = 0;

  probe_counters& operator+=(const probe_counters& other) {
    slots_scanned += other.slots_scanned;
    cells_probed += other.cells_probed;
    index_hits += other.index_hits;
    return *this;
  }
};

}  // namespace wsan::core
