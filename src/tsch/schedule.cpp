#include "tsch/schedule.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/error.h"

namespace wsan::tsch {

schedule::schedule(slot_t num_slots, int num_offsets)
    : num_slots_(num_slots), num_offsets_(num_offsets) {
  WSAN_REQUIRE(num_slots > 0, "schedule needs at least one slot");
  WSAN_REQUIRE(num_offsets > 0, "schedule needs at least one offset");
  cells_.resize(static_cast<std::size_t>(num_slots) *
                static_cast<std::size_t>(num_offsets));
  words_per_node_ =
      (static_cast<std::size_t>(num_slots) + k_word_bits - 1) / k_word_bits;
  full_.assign(words_per_node_, 0);
}

void schedule::mark_busy(node_id node, slot_t slot) {
  WSAN_REQUIRE(node >= 0, "transmission node id must be non-negative");
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  if (row + words_per_node_ > node_busy_.size())
    node_busy_.resize(row + words_per_node_, 0);
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] |=
      slot_bit(slot);
}

void schedule::mask_in(std::size_t ci, const transmission& tx) {
  std::uint64_t* senders = cell_masks_.data() + ci * 2 * mask_words_;
  const auto set = [](std::uint64_t* mask, node_id node) {
    mask[static_cast<std::size_t>(node) / k_word_bits] |=
        std::uint64_t{1} << (static_cast<std::size_t>(node) % k_word_bits);
  };
  set(senders, tx.sender);
  set(senders + mask_words_, tx.receiver);
}

void schedule::fit_masks(node_id node) {
  const std::size_t words = static_cast<std::size_t>(node) / k_word_bits + 1;
  if (words <= mask_words_) return;
  std::vector<std::uint64_t> wider(cells_.size() * 2 * words, 0);
  for (std::size_t m = 0; m < cells_.size() * 2; ++m)
    std::copy_n(cell_masks_.begin() +
                    static_cast<std::ptrdiff_t>(m * mask_words_),
                mask_words_,
                wider.begin() + static_cast<std::ptrdiff_t>(m * words));
  cell_masks_ = std::move(wider);
  mask_words_ = words;
}

void schedule::add(const transmission& tx, slot_t slot, offset_t offset) {
  const std::size_t ci = cell_index(slot, offset);
  cells_[ci].push_back(tx);
  placements_.push_back(placement{tx, slot, offset});
  if (cells_[ci].size() == 1) {
    // An empty cell filled: the slot is full if no cell in it is empty.
    const auto* cells = cells_.data() + cell_index(slot, 0);
    if (std::none_of(cells, cells + num_offsets_,
                     [](const std::vector<transmission>& c) {
                       return c.empty();
                     }))
      full_[static_cast<std::size_t>(slot) / k_word_bits] |= slot_bit(slot);
  }
  mark_busy(tx.sender, slot);
  mark_busy(tx.receiver, slot);
  fit_masks(std::max(tx.sender, tx.receiver));
  mask_in(ci, tx);
}

void schedule::rebuild_masks(std::size_t ci) {
  std::fill_n(cell_masks_.begin() +
                  static_cast<std::ptrdiff_t>(ci * 2 * mask_words_),
              2 * mask_words_, 0);
  for (const transmission& tx : cells_[ci]) mask_in(ci, tx);
}

void schedule::clear_busy(node_id node, slot_t slot) {
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] &=
      ~slot_bit(slot);
}

std::size_t schedule::remove_flows_from(flow_id first) {
  const auto removed_flow = [first](const transmission& tx) {
    return tx.flow >= first;
  };
  // Survivors are compacted in place; a removed placement's cell drops
  // every removed transmission at once, so a later removed placement of
  // the same cell finds nothing left to erase there.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const placement p = placements_[i];
    if (!removed_flow(p.tx)) {
      placements_[kept++] = p;
      continue;
    }
    const std::size_t ci = cell_index(p.slot, p.offset);
    if (std::erase_if(cells_[ci], removed_flow) > 0) {
      if (cells_[ci].empty())
        full_[static_cast<std::size_t>(p.slot) / k_word_bits] &=
            ~slot_bit(p.slot);
      rebuild_masks(ci);
    }
    // A conflict-free schedule has at most one transmission per node per
    // slot, so the removed endpoints are free now; scanning the survivors
    // of every cell of the slot (a cell not visited yet may still hold
    // removed transmissions) keeps the index right for any add() history.
    const std::size_t slot_cell = cell_index(p.slot, 0);
    for (const node_id node : {p.tx.sender, p.tx.receiver}) {
      bool kept_busy = false;
      for (offset_t c = 0; c < num_offsets_; ++c)
        for (const transmission& tx : cells_[slot_cell + c])
          kept_busy |= !removed_flow(tx) &&
                       (tx.sender == node || tx.receiver == node);
      if (!kept_busy) clear_busy(node, p.slot);
    }
  }
  const std::size_t removed = placements_.size() - kept;
  placements_.erase(placements_.begin() + static_cast<std::ptrdiff_t>(kept),
                    placements_.end());
  return removed;
}

}  // namespace wsan::tsch
