// Occupancy-index check shared by the schedule and fleet suites: the
// schedule's per-cell sender and receiver node masks against masks
// rebuilt from the ground-truth cell vectors.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsch/schedule.h"

namespace wsan::tsch {

/// Expects every cell's node masks to equal the masks rebuilt from
/// cell(s, c), and the mask width to hold every node in the cells.
inline void expect_cell_masks_match(const schedule& sched) {
  const std::size_t words = sched.node_mask_words();
  const auto set = [&](std::vector<std::uint64_t>& mask, node_id node) {
    ASSERT_LT(static_cast<std::size_t>(node), words * 64);
    mask[static_cast<std::size_t>(node) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(node) % 64);
  };
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      std::vector<std::uint64_t> senders(words, 0);
      std::vector<std::uint64_t> receivers(words, 0);
      for (const auto& tx : sched.cell(s, c)) {
        set(senders, tx.sender);
        set(receivers, tx.receiver);
      }
      const std::uint64_t* got = sched.cell_senders(s, c);
      EXPECT_EQ(std::vector<std::uint64_t>(got, got + words), senders)
          << "senders of cell (" << s << ", " << c << ")";
      got = sched.cell_receivers(s, c);
      EXPECT_EQ(std::vector<std::uint64_t>(got, got + words), receivers)
          << "receivers of cell (" << s << ", " << c << ")";
    }
  }
}

}  // namespace wsan::tsch
