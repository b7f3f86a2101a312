// Occupancy-index check shared by the schedule and fleet suites: the
// cells against placements(), and every part of the schedule's index
// against the cells.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsch/schedule.h"

namespace wsan::tsch {

/// Expects every cell(s, c) to yield exactly the placements at (s, c),
/// in placements() order, with size() and cell_load() its length. The
/// walk stops after num_transmissions() + 1 steps, so a chain that runs
/// on past its cell fails instead of looping.
inline void expect_cells_follow_placements(const schedule& sched) {
  const auto offsets = static_cast<std::size_t>(sched.num_offsets());
  std::vector<std::vector<transmission>> expected(
      static_cast<std::size_t>(sched.num_slots()) * offsets);
  for (const auto& p : sched.placements())
    expected[static_cast<std::size_t>(p.slot) * offsets +
             static_cast<std::size_t>(p.offset)]
        .push_back(p.tx);
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto cell = sched.cell(s, c);
      std::vector<transmission> got;
      for (auto it = cell.begin();
           it != cell.end() && got.size() <= sched.num_transmissions(); ++it)
        got.push_back(*it);
      EXPECT_EQ(got, expected[static_cast<std::size_t>(s) * offsets +
                              static_cast<std::size_t>(c)])
          << "cell (" << s << ", " << c << ") vs placements()";
      EXPECT_EQ(cell.size(), got.size()) << "cell (" << s << ", " << c << ")";
      EXPECT_EQ(cell.empty(), got.empty())
          << "cell (" << s << ", " << c << ")";
      EXPECT_EQ(sched.cell_load(s, c), static_cast<int>(got.size()))
          << "cell (" << s << ", " << c << ")";
    }
  }
}

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

/// Expects the busy-slot bitsets to match the cells both ways: a node
/// is busy in a slot iff one of the slot's cells holds a transmission it
/// sends or receives. Every allocated row is read, so a bit a removal
/// left behind shows as well as a missing one.
inline void expect_busy_bits_match(const schedule& sched) {
  node_id nodes = 0;
  while (sched.node_busy_words(nodes) != nullptr) ++nodes;
  for (const auto& p : sched.placements())
    nodes = std::max({nodes, p.tx.sender + 1, p.tx.receiver + 1});
  std::vector<char> used(static_cast<std::size_t>(nodes));
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    std::fill(used.begin(), used.end(), 0);
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      for (const auto& tx : sched.cell(s, c)) {
        used[static_cast<std::size_t>(tx.sender)] = 1;
        used[static_cast<std::size_t>(tx.receiver)] = 1;
      }
    }
    for (node_id n = 0; n < nodes; ++n)
      if (sched.node_busy(n, s) != (used[static_cast<std::size_t>(n)] != 0))
        ADD_FAILURE() << "node " << n << " slot " << s << ": busy bit "
                      << sched.node_busy(n, s) << ", cells disagree";
  }
}

/// Checks the cells against placements(), then every part of the
/// occupancy index against the cells: the busy bits both ways,
/// slot_load is the slot's cell sizes summed, a slot is full iff none
/// of its cells is empty, and each cell's node masks hold exactly its
/// senders and receivers.
inline void expect_index_consistent(const schedule& sched) {
  expect_cells_follow_placements(sched);
  expect_busy_bits_match(sched);
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    bool every_offset_used = true;
    int slot_size = 0;
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      every_offset_used = every_offset_used && !sched.cell(s, c).empty();
      slot_size += static_cast<int>(sched.cell(s, c).size());
    }
    EXPECT_EQ(sched.slot_load(s), slot_size) << "slot " << s;
    EXPECT_EQ(sched.slot_full(s), every_offset_used) << "slot " << s;
  }
  expect_cell_masks_match(sched);
}

}  // namespace wsan::tsch
