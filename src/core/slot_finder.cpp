#include "core/slot_finder.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "core/constraints.h"
#include "core/probe_counters.h"

namespace wsan::core {

namespace {

/// Isolation rules: an isolated transmission accepts only empty cells;
/// a cell holding an isolated transmission accepts nobody else.
bool isolation_ok(const tsch::transmission& tx,
                  const tsch::schedule::cell_view& cell,
                  const link_set* isolated) {
  if (isolated == nullptr || isolated->empty()) return true;
  if (cell.empty()) return true;
  if (is_isolated(*isolated, tx.sender, tx.receiver)) return false;
  for (const auto& other : cell)
    if (is_isolated(*isolated, other.sender, other.receiver)) return false;
  return true;
}

/// The reference offset choice in one conflict-free slot: probes the
/// slot's cells in offset order against the channel constraint and
/// isolation, measuring each cell, and keeps the valid offset `policy`
/// prefers. Returns k_invalid_offset when no offset is valid.
offset_t choose_offset(const tsch::schedule& sched,
                       const tsch::transmission& tx, slot_t s, int rho,
                       const graph::hop_matrix& reuse_hops,
                       channel_policy policy,
                       const link_set* isolated,
                       probe_counters* probes) {
  offset_t best = k_invalid_offset;
  int best_load = 0;
  for (offset_t c = 0; c < sched.num_offsets(); ++c) {
    if (probes != nullptr) ++probes->cells_probed;
    const int load = sched.cell_load(s, c);
    // An empty cell passes the channel constraint and isolation
    // trivially, so only occupied cells are read.
    if (load > 0) {
      const auto cell = sched.cell(s, c);
      if (!channel_constraint_ok(tx, cell, rho, reuse_hops)) continue;
      if (!isolation_ok(tx, cell, isolated)) continue;
    }
    // Strict comparisons keep the tie-break deterministic: the first
    // (lowest) valid offset at the winning load is retained.
    const bool better = [&] {
      if (best == k_invalid_offset) return true;
      switch (policy) {
        case channel_policy::min_load:
          return load < best_load;
        case channel_policy::first_fit:
          return false;  // first valid offset wins
        case channel_policy::max_reuse:
          return load > best_load;
      }
      return false;
    }();
    if (better) {
      best = c;
      best_load = load;
      if (policy == channel_policy::first_fit) break;
      if (policy == channel_policy::min_load && load == 0) break;
    }
  }
  return best;
}

/// Reference oracle: one slot at a time, the conflict test scanning the
/// slot's cells.
std::optional<slot_assignment> find_slot_naive(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const link_set* isolated,
    int management_slot_period, probe_counters* probes) {
  for (slot_t s = earliest; s <= end; ++s) {
    if (is_management_slot(s, management_slot_period)) continue;
    if (probes != nullptr) ++probes->slots_scanned;
    if (!conflict_free(tx, sched, s)) continue;
    const offset_t c = choose_offset(sched, tx, s, rho, reuse_hops,
                                     policy, isolated, probes);
    if (c != k_invalid_offset) return slot_assignment{s, c};
  }
  return std::nullopt;
}

/// What the indexed search knows about tx before it reads a slot: the
/// hop balls of its endpoints at rho (null at rho = infinity, where
/// only empty cells are valid) and its isolation status.
struct slot_judge {
  const tsch::schedule& sched;
  const tsch::transmission& tx;
  channel_policy policy;
  /// Non-null only when the isolation set is non-empty.
  const link_set* isolated;
  const std::uint64_t* sender_ball = nullptr;    // ball(tx.sender, rho)
  const std::uint64_t* receiver_ball = nullptr;  // ball(tx.receiver, rho)

  /// The offsets among `occupied` whose cells in slot s tx may join:
  /// constraint 2b for a cell is (receivers & sender_ball) | (senders &
  /// receiver_ball) == 0, then isolation, read from the cell itself.
  std::uint32_t joinable(slot_t s, std::uint32_t occupied) const {
    const std::size_t words = sched.node_mask_words();
    const std::uint64_t* masks = sched.cell_senders(s, 0);
    std::uint32_t pass = 0;
    for (std::uint32_t bits = occupied; bits != 0; bits &= bits - 1) {
      const auto c = static_cast<offset_t>(std::countr_zero(bits));
      const std::uint64_t* senders = masks + 2 * words * c;
      const std::uint64_t* receivers = senders + words;
      std::uint64_t near = 0;
      for (std::size_t w = 0; w < words; ++w)
        near |= (receivers[w] & sender_ball[w]) |
                (senders[w] & receiver_ball[w]);
      if (near != 0) continue;
      if (isolated != nullptr && !isolation_ok(tx, sched.cell(s, c), isolated))
        continue;
      pass |= std::uint32_t{1} << c;
    }
    return pass;
  }

  /// Judges every offset of conflict-free slot s at once (`full` is its
  /// full-slot bit) and applies the policy's pick: the offset
  /// choose_offset would return. Adds to `cells` the cells
  /// choose_offset would probe: min_load stops at the first empty cell,
  /// first_fit at the first valid one, max_reuse probes them all.
  offset_t pick(slot_t s, bool full, std::size_t& cells) const {
    const int offsets = sched.num_offsets();
    const auto probed = [&cells](int n) {
      cells += static_cast<std::size_t>(n);
    };
    if (policy == channel_policy::min_load && !full) {
      // An empty cell beats every occupied one: the first wins.
      offset_t c = 0;
      while (sched.cell_load(s, c) > 0) ++c;
      probed(c + 1);
      return c;
    }

    std::uint32_t empty = 0;
    if (!full)
      for (offset_t c = 0; c < offsets; ++c)
        if (sched.cell_load(s, c) == 0) empty |= std::uint32_t{1} << c;
    std::uint32_t judged = ((std::uint32_t{1} << offsets) - 1) & ~empty;
    // first_fit takes the first valid cell, so occupied cells past the
    // first empty one cannot change its pick.
    if (policy == channel_policy::first_fit && empty != 0)
      judged &= (empty & (0 - empty)) - 1;
    const std::uint32_t valid =
        empty | (sender_ball != nullptr && judged != 0 ? joinable(s, judged)
                                                       : 0);

    if (policy == channel_policy::first_fit) {
      if (valid == 0) {
        probed(offsets);
        return k_invalid_offset;
      }
      const auto best = static_cast<offset_t>(std::countr_zero(valid));
      probed(best + 1);
      return best;
    }
    // The lowest valid offset at the least (min_load, here in a full
    // slot) or greatest (max_reuse) load; both probe every cell.
    offset_t best = k_invalid_offset;
    int best_load = 0;
    for (std::uint32_t bits = valid; bits != 0; bits &= bits - 1) {
      const auto c = static_cast<offset_t>(std::countr_zero(bits));
      const int load = sched.cell_load(s, c);
      if (best == k_invalid_offset ||
          (policy == channel_policy::min_load ? load < best_load
                                              : load > best_load)) {
        best = c;
        best_load = load;
      }
    }
    probed(offsets);
    return best;
  }
};

/// Indexed search, one 64-slot bitset word at a time. In each word the
/// window's non-management slots are `live`; the conflict-free ones are
/// `cf`, clear in both endpoints' busy bitsets. At rho = infinity only
/// an empty cell is valid, so the candidates are the cf slots that are
/// not full; at finite rho every cf slot is a candidate. Candidates are
/// judged in slot order, all offsets of a slot at once
/// (slot_judge::pick), and the first with a valid offset answers. Probe
/// counts equal the naive scan's and are added per word with popcount:
/// each live slot up to the answer is one scanned slot, and each full
/// cf slot skipped at rho = infinity counts its num_offsets cells as
/// probed, all answered by the index. Returns slot k_invalid_slot when
/// no slot in the window works.
slot_assignment find_slot_indexed(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const link_set* isolated,
    int management_slot_period, probe_counters* probes) {
  constexpr int wb = tsch::schedule::k_word_bits;
  slot_judge judge{sched, tx, policy,
                   isolated != nullptr && !isolated->empty() ? isolated
                                                             : nullptr};
  if (rho != k_infinite_hops) {
    WSAN_REQUIRE(sched.node_mask_words() <= reuse_hops.ball_words(),
                 "scheduled node id outside the reuse graph");
    judge.sender_ball = reuse_hops.ball(tx.sender, rho);
    judge.receiver_ball = reuse_hops.ball(tx.receiver, rho);
  }
  const std::uint64_t* sender_busy = sched.node_busy_words(tx.sender);
  const std::uint64_t* receiver_busy = sched.node_busy_words(tx.receiver);
  const std::uint64_t* full = sched.full_slot_words();
  // The naive scan's probe counts, every one answered by the index,
  // kept locally and reported once.
  std::size_t slots = 0;
  std::size_t cells = 0;
  const auto count = [&](std::uint64_t scanned, std::uint64_t skipped) {
    slots += static_cast<std::size_t>(std::popcount(scanned));
    cells += static_cast<std::size_t>(std::popcount(skipped)) *
             static_cast<std::size_t>(sched.num_offsets());
  };
  const auto report = [&] {
    if (probes == nullptr) return;
    probes->slots_scanned += slots;
    probes->cells_probed += cells;
    probes->index_hits += slots + cells;
  };

  const auto first = static_cast<std::size_t>(earliest) / wb;
  const auto last = static_cast<std::size_t>(end) / wb;
  for (std::size_t w = first; w <= last; ++w) {
    const std::uint64_t live =
        tsch::schedule::slot_range_bits(w, earliest, end) &
        ~management_slot_bits(w, management_slot_period);
    std::uint64_t busy = 0;
    if (sender_busy != nullptr) busy |= sender_busy[w];
    if (receiver_busy != nullptr) busy |= receiver_busy[w];
    const std::uint64_t cf = live & ~busy;
    const std::uint64_t candidates =
        rho == k_infinite_hops ? cf & ~full[w] : cf;
    for (std::uint64_t bits = candidates; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const auto s = static_cast<slot_t>(w * wb) + bit;
      const offset_t c = judge.pick(s, (full[w] >> bit) & 1, cells);
      if (c != k_invalid_offset) {
        // Slots above the answer were never reached.
        const std::uint64_t reached = ~std::uint64_t{0} >> (wb - 1 - bit);
        count(live & reached, (cf & ~candidates) & reached);
        report();
        return slot_assignment{s, c};
      }
    }
    count(live, cf & ~candidates);
  }
  report();
  return slot_assignment{};
}

}  // namespace

std::optional<slot_assignment> find_slot(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t latest, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const link_set* isolated,
    int management_slot_period, bool use_index,
    probe_counters* probes) {
  WSAN_REQUIRE(earliest >= 0, "earliest slot must be non-negative");
  WSAN_REQUIRE(rho >= 0, "rho must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  const slot_t end = std::min<slot_t>(latest, sched.num_slots() - 1);
  if (earliest > end) return std::nullopt;
  if (!use_index)
    return find_slot_naive(sched, tx, earliest, end, rho, reuse_hops,
                           policy, isolated, management_slot_period, probes);
  const slot_assignment found =
      find_slot_indexed(sched, tx, earliest, end, rho, reuse_hops, policy,
                        isolated, management_slot_period, probes);
  if (found.slot == k_invalid_slot) return std::nullopt;
  return found;
}

}  // namespace wsan::core
