// The TSCH transmission schedule: a slot x channel-offset grid over the
// hyperperiod (Section III-B).
//
// Standard WirelessHART permits at most one transmission per (slot,
// offset) cell; with channel reuse a cell may hold several. The schedule
// itself is policy-free — constraints are enforced by the scheduler and
// re-checked by validate_schedule().
//
// placements() is the only per-transmission store: a stack of
// placement records in insertion order. A cell (T_sc in the paper) is a
// chain through that stack — each placement links to the previous and
// next placement of its cell, and each cell keeps its head, tail and
// load — so cell(s, c) walks the cell's transmissions in insertion
// order, and a slot's transmissions (T_s) are the union of its cells.
// Besides the chains, the schedule maintains an incremental occupancy
// index updated by add():
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
//     per occupant. add() sets the bits; removing a placement rebuilds
//     its cell's masks from the chain. The mask width grows with the
//     largest node id added, like the busy-slot rows.
// The index is derived state only; the chains over placements() remain
// the ground truth, and the reference scans (core's naive find_slot and
// Eq. 1, validate_schedule) read them, never the index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "tsch/transmission.h"

namespace wsan::tsch {

class schedule {
 public:
  /// A placement record, in insertion order.
  struct placement {
    transmission tx;
    slot_t slot = k_invalid_slot;
    offset_t offset = k_invalid_offset;

    friend bool operator==(const placement&, const placement&) = default;
  };

 private:
  /// Index into placements(); k_none ends a chain.
  using link_t = std::int32_t;
  static constexpr link_t k_none = -1;
  /// A placement's neighbours in its cell's chain.
  struct link {
    link_t prev = k_none;
    link_t next = k_none;
  };

 public:
  /// One cell's transmissions (T_sc in the paper), in the order they
  /// were added: a forward walk along the cell's chain through
  /// placements(). size() and empty() are O(1). The view is invalidated
  /// by the next add() or remove_flows_from().
  class cell_view {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = transmission;
      using difference_type = std::ptrdiff_t;
      using pointer = const transmission*;
      using reference = const transmission&;

      iterator() = default;
      reference operator*() const { return placements_[at_].tx; }
      pointer operator->() const { return &placements_[at_].tx; }
      iterator& operator++() {
        at_ = links_[at_].next;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.at_ == b.at_;
      }

     private:
      friend class cell_view;
      iterator(const placement* placements, const link* links, link_t at)
          : placements_(placements), links_(links), at_(at) {}
      const placement* placements_ = nullptr;
      const link* links_ = nullptr;
      link_t at_ = k_none;
    };

    iterator begin() const { return {placements_, links_, head_}; }
    iterator end() const { return {placements_, links_, k_none}; }
    std::size_t size() const { return static_cast<std::size_t>(load_); }
    bool empty() const { return load_ == 0; }
    /// The cell's first transmission; the cell must not be empty.
    const transmission& front() const { return placements_[head_].tx; }

   private:
    friend class schedule;
    cell_view(const placement* placements, const link* links, link_t head,
              int load)
        : placements_(placements), links_(links), head_(head), load_(load) {}
    const placement* placements_;
    const link* links_;
    link_t head_;
    int load_;
  };

  schedule() = default;
  schedule(slot_t num_slots, int num_offsets);

  slot_t num_slots() const { return num_slots_; }
  int num_offsets() const { return num_offsets_; }

  /// Places a transmission at (slot, offset): pushes it onto
  /// placements() and appends it to the cell's chain. No constraint
  /// checking — that is the scheduler's job.
  void add(const transmission& tx, slot_t slot, offset_t offset);

  /// Removes every placement of the flows with id >= `first` — the
  /// eviction and rollback primitive of incremental delta-scheduling
  /// (core::delta_scheduler), where those flows are the lower-priority
  /// suffix. Pops placements() back to the first removed placement,
  /// each pop the exact inverse of its add() (the cell's masks are
  /// rebuilt from its chain, and each endpoint's busy bit is cleared
  /// unless a remaining transmission in one of the slot's cells uses
  /// the node, so any add() history stays consistent), then re-adds the
  /// survivors that were above it in placement order. Flow-major
  /// schedules, as the delta scheduler keeps, have no such survivors.
  /// The relative order of the surviving placements(), and so of each
  /// cell's survivors, is preserved. Returns the number of placements
  /// removed (0 when no flow id reaches `first`).
  std::size_t remove_flows_from(flow_id first);

  /// Transmissions already assigned to one cell (T_sc in the paper).
  cell_view cell(slot_t slot, offset_t offset) const {
    const chain& ch = chains_[cell_index(slot, offset)];
    return {placements_.data(), links_.data(), ch.head, ch.load};
  }

  /// Transmissions in the cell (|T_sc|). O(1).
  int cell_load(slot_t slot, offset_t offset) const {
    return chains_[cell_index(slot, offset)].load;
  }

  /// Transmissions in the slot across every offset (|T_s|): the sum of
  /// its cells' loads. O(offsets).
  int slot_load(slot_t slot) const {
    const chain* cells = chains_.data() + cell_index(slot, 0);
    int load = 0;
    for (int c = 0; c < num_offsets_; ++c) load += cells[c].load;
    return load;
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
  /// bit when its last empty cell fills; removing a placement clears it
  /// when its cell empties.
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

  /// Every placement, in insertion order: the schedule's one
  /// per-transmission store.
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
  /// Clears the node's busy bit in the slot unless a transmission in
  /// one of the slot's cells still sends or receives with it, read from
  /// the cells' node masks.
  void release_busy(node_id node, slot_t slot);
  /// Widens the cell node masks to hold `node`.
  void fit_masks(node_id node);
  /// Sets tx's sender and receiver bits in cell `ci`'s node masks.
  void mask_in(std::size_t ci, const transmission& tx);
  /// Recomputes cell `ci`'s node masks from its chain.
  void rebuild_masks(std::size_t ci);
  /// Removes the last placement: the exact inverse of the add() that
  /// placed it, which left it its cell's tail.
  void pop_placement();

  /// A cell's chain through placements_: first and last placement, and
  /// the number of placements in between (|T_sc|).
  struct chain {
    link_t head = k_none;
    link_t tail = k_none;
    int load = 0;
  };

  slot_t num_slots_ = 0;
  int num_offsets_ = 0;
  std::vector<placement> placements_;
  std::vector<link> links_;    // one per placement, its cell neighbours
  std::vector<chain> chains_;  // slots x offsets
  std::size_t words_per_node_ = 0;
  std::vector<std::uint64_t> node_busy_;  // nodes x words_per_node_
  std::vector<std::uint64_t> full_;       // words_per_node_ words
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> cell_masks_;  // cells x 2 x mask_words_
};

}  // namespace wsan::tsch
