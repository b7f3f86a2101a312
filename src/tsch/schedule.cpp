#include "tsch/schedule.h"

#include <algorithm>
#include <cstddef>

#include "common/error.h"

namespace wsan::tsch {

schedule::schedule(slot_t num_slots, int num_offsets)
    : num_slots_(num_slots), num_offsets_(num_offsets) {
  WSAN_REQUIRE(num_slots > 0, "schedule needs at least one slot");
  WSAN_REQUIRE(num_offsets > 0, "schedule needs at least one offset");
  cells_.resize(static_cast<std::size_t>(num_slots) *
                static_cast<std::size_t>(num_offsets));
  slot_all_.resize(static_cast<std::size_t>(num_slots));
  words_per_node_ =
      (static_cast<std::size_t>(num_slots) + k_word_bits - 1) / k_word_bits;
  cell_load_.assign(cells_.size(), 0);
}

void schedule::mark_busy(node_id node, slot_t slot) {
  WSAN_REQUIRE(node >= 0, "transmission node id must be non-negative");
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  if (row + words_per_node_ > node_busy_.size())
    node_busy_.resize(row + words_per_node_, 0);
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] |=
      std::uint64_t{1} << (static_cast<std::size_t>(slot) % k_word_bits);
}

void schedule::add(const transmission& tx, slot_t slot, offset_t offset) {
  const std::size_t ci = cell_index(slot, offset);
  cells_[ci].push_back(tx);
  slot_all_[static_cast<std::size_t>(slot)].push_back(tx);
  placements_.push_back(placement{tx, slot, offset});
  ++cell_load_[ci];
  mark_busy(tx.sender, slot);
  mark_busy(tx.receiver, slot);
}

void schedule::clear_busy(node_id node, slot_t slot) {
  const auto row = static_cast<std::size_t>(node) * words_per_node_;
  node_busy_[row + static_cast<std::size_t>(slot) / k_word_bits] &=
      ~(std::uint64_t{1} << (static_cast<std::size_t>(slot) % k_word_bits));
}

std::size_t schedule::remove_flows_from(flow_id first) {
  const auto removed_flow = [first](const transmission& tx) {
    return tx.flow >= first;
  };
  // Survivors are compacted in place; a removed placement's cell and
  // slot vectors drop every removed transmission at once, so a later
  // removed placement of the same cell or slot finds nothing left to
  // erase there.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const placement p = placements_[i];
    if (!removed_flow(p.tx)) {
      placements_[kept++] = p;
      continue;
    }
    const std::size_t ci = cell_index(p.slot, p.offset);
    std::erase_if(cells_[ci], removed_flow);
    cell_load_[ci] = static_cast<int>(cells_[ci].size());
    auto& txs = slot_all_[static_cast<std::size_t>(p.slot)];
    std::erase_if(txs, removed_flow);
    // A conflict-free schedule has at most one transmission per node per
    // slot, so the removed endpoints are free now; checking the slot's
    // survivors keeps the index right for any add() history.
    for (const node_id node : {p.tx.sender, p.tx.receiver}) {
      const bool kept_busy = std::any_of(
          txs.begin(), txs.end(), [node](const transmission& tx) {
            return tx.sender == node || tx.receiver == node;
          });
      if (!kept_busy) clear_busy(node, p.slot);
    }
  }
  const std::size_t removed = placements_.size() - kept;
  placements_.erase(placements_.begin() + static_cast<std::ptrdiff_t>(kept),
                    placements_.end());
  return removed;
}

const std::vector<transmission>& schedule::cell(slot_t slot,
                                                offset_t offset) const {
  return cells_[cell_index(slot, offset)];
}

const std::vector<transmission>& schedule::slot_transmissions(
    slot_t slot) const {
  check_slot(slot);
  return slot_all_[static_cast<std::size_t>(slot)];
}

int schedule::cell_size(slot_t slot, offset_t offset) const {
  return static_cast<int>(cell(slot, offset).size());
}

schedule shift_node_ids(const schedule& sched, node_id offset) {
  WSAN_REQUIRE(offset >= 0, "offset must be non-negative");
  schedule shifted(sched.num_slots(), sched.num_offsets());
  for (const auto& p : sched.placements()) {
    transmission tx = p.tx;
    tx.sender += offset;
    tx.receiver += offset;
    shifted.add(tx, p.slot, p.offset);
  }
  return shifted;
}

}  // namespace wsan::tsch
