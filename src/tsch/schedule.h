// The TSCH transmission schedule: a slot x channel-offset grid over the
// hyperperiod (Section III-B).
//
// Standard WirelessHART permits at most one transmission per (slot,
// offset) cell; with channel reuse a cell may hold several. The schedule
// itself is policy-free — constraints are enforced by the scheduler and
// re-checked by validate_schedule().
//
// The cells are the only per-slot store: a slot's transmissions (T_s in
// the paper) are the union of its cells' (T_sc). Besides the cells and
// the placements() list, the schedule maintains an incremental
// occupancy index updated by add():
//   * per-node busy-slot bitsets (one bit per slot for every node that
//     sends or receives in it), so "does tx conflict with slot s" is two
//     O(1) bit tests instead of a scan of the slot's cells — two
//     transmissions conflict iff they share a node (Section III-B);
//   * a full-slot bitset (bit k set iff every offset of slot k holds at
//     least one transmission), so a search that needs an empty cell
//     skips full slots a word at a time;
//   * per-cell sender and receiver node masks (bit y set iff node y
//     sends, respectively receives, in the cell), so constraint 2b for
//     a whole cell is a few word operations against the reuse graph's
//     hop balls (graph::hop_matrix::ball) instead of a distance lookup
//     per occupant. add() sets the bits; remove_flows_from() rebuilds
//     the masks of every cell it touches from the survivors. The mask
//     width grows with the largest node id added, like the busy-slot
//     rows.
// The index is derived state only; the cells remain the ground truth,
// and the reference scans (core's naive find_slot and Eq. 1,
// validate_schedule) read them, never the index.
#pragma once

#include <cstdint>
#include <numeric>
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
  /// occupancy): each removed placement leaves its cell, and its
  /// endpoints' busy bits are cleared unless a survivor in one of the
  /// slot's cells uses the node (correct even if the caller ever placed
  /// conflicting transmissions). The relative order of the surviving
  /// placements() is preserved. Returns the number of placements removed
  /// (0 when no flow id reaches `first`).
  std::size_t remove_flows_from(flow_id first);

  /// Transmissions already assigned to one cell (T_sc in the paper).
  const std::vector<transmission>& cell(slot_t slot, offset_t offset) const {
    return cells_[cell_index(slot, offset)];
  }

  /// Transmissions in the cell (|T_sc|). O(1).
  int cell_load(slot_t slot, offset_t offset) const {
    return static_cast<int>(cell(slot, offset).size());
  }

  /// Transmissions in the slot across every offset (|T_s|): the sum of
  /// its cells' loads. O(offsets).
  int slot_load(slot_t slot) const {
    const auto* cells = cells_.data() + cell_index(slot, 0);
    return std::accumulate(cells, cells + num_offsets_, 0,
                           [](int sum, const std::vector<transmission>& c) {
                             return sum + static_cast<int>(c.size());
                           });
  }

  // ------------------------------------------------ occupancy index --

  /// Bits per busy-slot bitset word.
  static constexpr int k_word_bits = 64;

  /// Number of 64-bit words in each node's busy-slot bitset.
  std::size_t words_per_node() const { return words_per_node_; }

  /// The bits of bitset word `w` that stand for slots in [first, last]
  /// (the range must reach into the word).
  static std::uint64_t slot_range_bits(std::size_t w, slot_t first,
                                       slot_t last) {
    const auto lo = static_cast<std::size_t>(first);
    const auto hi = static_cast<std::size_t>(last);
    std::uint64_t bits = ~std::uint64_t{0};
    if (w == lo / k_word_bits) bits <<= lo % k_word_bits;
    if (w == hi / k_word_bits)
      bits &= ~std::uint64_t{0} >> (k_word_bits - 1 - hi % k_word_bits);
    return bits;
  }

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
  /// the index-backed equivalent of core::conflict_free over the slot's
  /// cells. O(1).
  bool slot_conflict_free(const transmission& tx, slot_t slot) const {
    return !node_busy(tx.sender, slot) && !node_busy(tx.receiver, slot);
  }

  /// The full-slot bitset, words_per_node() words: bit k is set iff
  /// every offset of slot k holds a transmission. add() sets a slot's
  /// bit when its last empty cell fills; remove_flows_from() clears it
  /// when a cell empties.
  const std::uint64_t* full_slot_words() const { return full_.data(); }

  /// True iff every offset of the slot holds a transmission. O(1).
  bool slot_full(slot_t slot) const {
    check_slot(slot);
    return (full_[static_cast<std::size_t>(slot) / k_word_bits] &
            slot_bit(slot)) != 0;
  }

  /// 64-bit words per cell node mask: enough for every node id added
  /// so far (0 before the first add()).
  std::size_t node_mask_words() const { return mask_words_; }

  /// The cell's sender mask (bit y set iff node y sends in the cell),
  /// node_mask_words() words, immediately followed by its receiver
  /// mask. A slot's cells follow one another in offset order, so cell
  /// (slot, c)'s masks start 2 * c * node_mask_words() words after
  /// cell (slot, 0)'s. The pointer is invalidated by the next add().
  const std::uint64_t* cell_senders(slot_t slot, offset_t offset) const {
    return cell_masks_.data() + cell_index(slot, offset) * 2 * mask_words_;
  }

  /// The cell's receiver mask (bit y set iff node y receives in the
  /// cell), node_mask_words() words.
  const std::uint64_t* cell_receivers(slot_t slot, offset_t offset) const {
    return cell_senders(slot, offset) + mask_words_;
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
  /// The slot's bit within its bitset word.
  static std::uint64_t slot_bit(slot_t slot) {
    return std::uint64_t{1} << (static_cast<std::size_t>(slot) % k_word_bits);
  }
  void mark_busy(node_id node, slot_t slot);
  void clear_busy(node_id node, slot_t slot);
  /// Widens the cell node masks to hold `node`.
  void fit_masks(node_id node);
  /// Sets tx's sender and receiver bits in cell `ci`'s node masks.
  void mask_in(std::size_t ci, const transmission& tx);
  /// Recomputes cell `ci`'s node masks from its transmissions.
  void rebuild_masks(std::size_t ci);

  slot_t num_slots_ = 0;
  int num_offsets_ = 0;
  std::vector<std::vector<transmission>> cells_;  // slots x offsets
  std::vector<placement> placements_;
  std::size_t words_per_node_ = 0;
  std::vector<std::uint64_t> node_busy_;  // nodes x words_per_node_
  std::vector<std::uint64_t> full_;       // words_per_node_ words
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> cell_masks_;  // cells x 2 x mask_words_
};

}  // namespace wsan::tsch
