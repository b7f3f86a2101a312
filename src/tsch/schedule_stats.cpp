#include "tsch/schedule_stats.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace wsan::tsch {

histogram tx_per_channel_histogram(const schedule& sched) {
  histogram hist;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const int count = sched.cell_load(s, c);
      if (count > 0) hist.add(count);
    }
  }
  return hist;
}

histogram reuse_hop_count_histogram(const schedule& sched,
                                    const graph::hop_matrix& reuse_hops) {
  histogram hist;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto& cell = sched.cell(s, c);
      if (cell.size() < 2) continue;
      int min_hops = k_infinite_hops;
      for (std::size_t i = 0; i < cell.size(); ++i) {
        for (std::size_t j = 0; j < cell.size(); ++j) {
          if (i == j) continue;
          min_hops = std::min(
              min_hops, reuse_hops.hops(cell[i].sender, cell[j].receiver));
        }
      }
      if (min_hops != k_infinite_hops) hist.add(min_hops);
    }
  }
  return hist;
}

std::size_t reusing_cell_count(const schedule& sched) {
  std::size_t count = 0;
  for (slot_t s = 0; s < sched.num_slots(); ++s)
    for (offset_t c = 0; c < sched.num_offsets(); ++c)
      if (sched.cell_load(s, c) >= 2) ++count;
  return count;
}

occupancy_stats occupancy(const schedule& sched) {
  occupancy_stats stats;
  stats.total_cells = static_cast<std::size_t>(sched.num_slots()) *
                      static_cast<std::size_t>(sched.num_offsets());
  stats.transmissions = sched.num_transmissions();
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    if (sched.slot_load(s) > 0) ++stats.busy_slots;
    for (offset_t c = 0; c < sched.num_offsets(); ++c)
      if (sched.cell_load(s, c) > 0) ++stats.occupied_cells;
  }
  return stats;
}

std::size_t links_in_reuse_count(const schedule& sched) {
  std::set<std::pair<node_id, node_id>> links;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto& cell = sched.cell(s, c);
      if (cell.size() < 2) continue;
      for (const auto& tx : cell) links.insert({tx.sender, tx.receiver});
    }
  }
  return links.size();
}

}  // namespace wsan::tsch
