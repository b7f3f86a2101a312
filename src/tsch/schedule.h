// The TSCH transmission schedule: a slot x channel-offset grid over the
// hyperperiod (Section III-B).
//
// Standard WirelessHART permits at most one transmission per (slot,
// offset) cell; with channel reuse a cell may hold several. The schedule
// itself is policy-free — constraints are enforced by the scheduler and
// re-checked by validate_schedule().
//
// Besides the raw cell contents, the schedule maintains an incremental
// occupancy index updated by add():
//   * per-node busy-slot bitsets (one bit per slot for every node that
//     sends or receives in it), so "does tx conflict with slot s" is two
//     O(1) bit tests instead of a scan of slot_transmissions(s) — two
//     transmissions conflict iff they share a node (Section III-B);
//   * per-cell load counters, so channel-selection policies read a
//     cached integer instead of measuring the cell vector.
// The index is derived state only; the vectors remain the ground truth
// and the naive scans stay available as a reference oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "tsch/transmission.h"

namespace wsan::tsch {

class schedule {
 public:
  schedule() = default;
  schedule(slot_t num_slots, int num_offsets);

  slot_t num_slots() const { return num_slots_; }
  int num_offsets() const { return num_offsets_; }

  /// Places a transmission at (slot, offset). No constraint checking —
  /// that is the scheduler's job.
  void add(const transmission& tx, slot_t slot, offset_t offset);

  /// Removes every placement of the flows with id >= `first` in one pass
  /// — the eviction and rollback primitive of incremental
  /// delta-scheduling (core::delta_scheduler), where those flows are the
  /// lower-priority suffix. Cost is O(placements + removed x slot
  /// occupancy): each removed placement leaves its cell and slot vectors
  /// (the load counter follows), and its endpoints' busy bits are
  /// cleared unless a survivor in the slot uses the node (correct even
  /// if the caller ever placed conflicting transmissions). The relative
  /// order of the surviving placements() is preserved. Returns the
  /// number of placements removed (0 when no flow id reaches `first`).
  std::size_t remove_flows_from(flow_id first);

  /// Transmissions already assigned to one cell (T_sc in the paper).
  const std::vector<transmission>& cell(slot_t slot, offset_t offset) const;

  /// All transmissions in a slot across every offset (T_s in the paper).
  const std::vector<transmission>& slot_transmissions(slot_t slot) const;

  int cell_size(slot_t slot, offset_t offset) const;

  // ------------------------------------------------ occupancy index --

  /// Bits per busy-slot bitset word.
  static constexpr int k_word_bits = 64;

  /// Number of 64-bit words in each node's busy-slot bitset.
  std::size_t words_per_node() const { return words_per_node_; }

  /// The node's busy-slot bitset (bit k set iff the node sends or
  /// receives in slot k), or nullptr if no row was ever allocated for
  /// the node (its id exceeds every scheduled node's). The pointer is
  /// invalidated by the next add().
  const std::uint64_t* node_busy_words(node_id node) const {
    if (node < 0) return nullptr;
    const auto row = static_cast<std::size_t>(node) * words_per_node_;
    if (words_per_node_ == 0 || row + words_per_node_ > node_busy_.size())
      return nullptr;
    return node_busy_.data() + row;
  }

  /// True iff the node sends or receives in the slot. O(1).
  bool node_busy(node_id node, slot_t slot) const {
    check_slot(slot);
    const std::uint64_t* words = node_busy_words(node);
    if (words == nullptr) return false;
    return (words[static_cast<std::size_t>(slot) / k_word_bits] >>
            (static_cast<std::size_t>(slot) % k_word_bits)) &
           1;
  }

  /// True iff tx shares no node with any transmission in the slot —
  /// the index-backed equivalent of core::conflict_free over
  /// slot_transmissions(slot). O(1).
  bool slot_conflict_free(const transmission& tx, slot_t slot) const {
    return !node_busy(tx.sender, slot) && !node_busy(tx.receiver, slot);
  }

  /// Cached cell_size(slot, offset): transmissions in the cell. O(1).
  int cell_load(slot_t slot, offset_t offset) const {
    return cell_load_[cell_index(slot, offset)];
  }

  /// A placement record, in insertion order.
  struct placement {
    transmission tx;
    slot_t slot = k_invalid_slot;
    offset_t offset = k_invalid_offset;

    friend bool operator==(const placement&, const placement&) = default;
  };
  const std::vector<placement>& placements() const { return placements_; }

  std::size_t num_transmissions() const { return placements_.size(); }

 private:
  std::size_t cell_index(slot_t slot, offset_t offset) const {
    check_slot(slot);
    WSAN_REQUIRE(offset >= 0 && offset < num_offsets_,
                 "offset out of range");
    return static_cast<std::size_t>(slot) *
               static_cast<std::size_t>(num_offsets_) +
           static_cast<std::size_t>(offset);
  }
  void check_slot(slot_t slot) const {
    WSAN_REQUIRE(slot >= 0 && slot < num_slots_, "slot out of range");
  }
  void mark_busy(node_id node, slot_t slot);
  void clear_busy(node_id node, slot_t slot);

  slot_t num_slots_ = 0;
  int num_offsets_ = 0;
  std::vector<std::vector<transmission>> cells_;      // slots x offsets
  std::vector<std::vector<transmission>> slot_all_;   // per slot
  std::vector<placement> placements_;
  std::size_t words_per_node_ = 0;
  std::vector<std::uint64_t> node_busy_;  // nodes x words_per_node_
  std::vector<int> cell_load_;            // slots x offsets
};

/// Rebuilds the schedule with every transmission's node ids shifted by
/// `offset` — the schedule counterpart of flow::shift_node_ids for
/// re-expressing a standalone network in a merged topology's id space.
schedule shift_node_ids(const schedule& sched, node_id offset);

}  // namespace wsan::tsch
