#include "tsch/schedule.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace wsan::tsch {

schedule::schedule(slot_t num_slots, int num_offsets)
    : num_slots_(num_slots), num_offsets_(num_offsets) {
  WSAN_REQUIRE(num_slots > 0, "schedule needs at least one slot");
  WSAN_REQUIRE(num_offsets > 0, "schedule needs at least one offset");
  chains_.resize(static_cast<std::size_t>(num_slots) *
                 static_cast<std::size_t>(num_offsets));
  words_per_node_ =
      (static_cast<std::size_t>(num_slots) + k_word_bits - 1) / k_word_bits;
  full_.assign(words_per_node_, 0);
}

void schedule::mark_busy(node_id node, slot_t slot) {
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
  std::vector<std::uint64_t> wider(chains_.size() * 2 * words, 0);
  for (std::size_t m = 0; m < chains_.size() * 2; ++m)
    std::copy_n(cell_masks_.begin() +
                    static_cast<std::ptrdiff_t>(m * mask_words_),
                mask_words_,
                wider.begin() + static_cast<std::ptrdiff_t>(m * words));
  cell_masks_ = std::move(wider);
  mask_words_ = words;
}

void schedule::add(const transmission& tx, slot_t slot, offset_t offset) {
  const std::size_t ci = cell_index(slot, offset);
  WSAN_REQUIRE(tx.sender >= 0 && tx.receiver >= 0,
               "transmission node id must be non-negative");
  WSAN_REQUIRE(placements_.size() <
                   static_cast<std::size_t>(std::numeric_limits<link_t>::max()),
               "schedule holds too many placements");
  const auto at = static_cast<link_t>(placements_.size());
  chain& ch = chains_[ci];
  placements_.push_back(placement{tx, slot, offset});
  links_.push_back(link{ch.tail, k_none});
  if (ch.tail == k_none)
    ch.head = at;
  else
    links_[static_cast<std::size_t>(ch.tail)].next = at;
  ch.tail = at;
  if (++ch.load == 1) {
    // An empty cell filled: the slot is full if no cell in it is empty.
    const chain* cells = chains_.data() + cell_index(slot, 0);
    if (std::none_of(cells, cells + num_offsets_,
                     [](const chain& c) { return c.load == 0; }))
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
  for (link_t at = chains_[ci].head; at != k_none;
       at = links_[static_cast<std::size_t>(at)].next)
    mask_in(ci, placements_[static_cast<std::size_t>(at)].tx);
}

void schedule::release_busy(node_id node, slot_t slot) {
  const auto word = static_cast<std::size_t>(node) / k_word_bits;
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(node) % k_word_bits);
  // A slot's cells are contiguous, each a sender then a receiver mask.
  const std::uint64_t* masks = cell_senders(slot, 0);
  for (std::size_t m = 0; m < 2 * static_cast<std::size_t>(num_offsets_);
       ++m)
    if ((masks[m * mask_words_ + word] & bit) != 0) return;
  node_busy_[static_cast<std::size_t>(node) * words_per_node_ +
             static_cast<std::size_t>(slot) / k_word_bits] &= ~slot_bit(slot);
}

void schedule::pop_placement() {
  const placement p = placements_.back();
  const link_t prev = links_.back().prev;
  placements_.pop_back();
  links_.pop_back();
  const std::size_t ci = cell_index(p.slot, p.offset);
  chain& ch = chains_[ci];
  ch.tail = prev;
  if (prev == k_none)
    ch.head = k_none;
  else
    links_[static_cast<std::size_t>(prev)].next = k_none;
  if (--ch.load == 0)
    full_[static_cast<std::size_t>(p.slot) / k_word_bits] &=
        ~slot_bit(p.slot);
  // The cell's masks are exact again before they answer for the busy
  // bits: a conflict-free schedule has one transmission per node per
  // slot, but add() allows any history.
  rebuild_masks(ci);
  release_busy(p.tx.sender, p.slot);
  release_busy(p.tx.receiver, p.slot);
}

std::size_t schedule::remove_flows_from(flow_id first) {
  const auto removed_flow = [first](const placement& p) {
    return p.tx.flow >= first;
  };
  const auto bottom =
      std::find_if(placements_.begin(), placements_.end(), removed_flow);
  if (bottom == placements_.end()) return 0;
  // Survivors above the first removed placement, re-added in placement
  // order once the stack is popped back to it.
  std::vector<placement> survivors;
  std::copy_if(bottom + 1, placements_.end(), std::back_inserter(survivors),
               [&](const placement& p) { return !removed_flow(p); });
  const std::size_t before = placements_.size();
  const auto keep = static_cast<std::size_t>(bottom - placements_.begin());
  while (placements_.size() > keep) pop_placement();
  for (const placement& p : survivors) add(p.tx, p.slot, p.offset);
  return before - placements_.size();
}

}  // namespace wsan::tsch
