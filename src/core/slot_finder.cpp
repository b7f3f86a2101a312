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
                  const std::vector<tsch::transmission>& cell,
                  const std::set<std::pair<node_id, node_id>>* isolated) {
  if (isolated == nullptr || isolated->empty()) return true;
  if (cell.empty()) return true;
  if (is_isolated(*isolated, tx.sender, tx.receiver)) return false;
  for (const auto& other : cell)
    if (is_isolated(*isolated, other.sender, other.receiver)) return false;
  return true;
}

/// The offset choice in one conflict-free slot, shared by both paths:
/// probes the slot's cells in offset order against the channel
/// constraint and isolation, and keeps the valid offset `policy`
/// prefers. Returns k_invalid_offset when no offset is valid. The
/// indexed path reads the cached cell load; the naive path measures
/// the cell.
offset_t choose_offset(const tsch::schedule& sched,
                       const tsch::transmission& tx, slot_t s, int rho,
                       const graph::hop_matrix& reuse_hops,
                       channel_policy policy,
                       const std::set<std::pair<node_id, node_id>>* isolated,
                       bool use_index, probe_counters* probes) {
  offset_t best = k_invalid_offset;
  int best_load = 0;
  for (offset_t c = 0; c < sched.num_offsets(); ++c) {
    if (probes != nullptr) {
      ++probes->cells_probed;
      if (use_index) ++probes->index_hits;
    }
    const int load =
        use_index ? sched.cell_load(s, c) : sched.cell_size(s, c);
    // An empty cell passes the channel constraint and isolation
    // trivially, so only occupied cells are read.
    if (load > 0) {
      const auto& cell = sched.cell(s, c);
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
/// slot's transmissions.
std::optional<slot_assignment> find_slot_naive(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, probe_counters* probes) {
  for (slot_t s = earliest; s <= end; ++s) {
    if (is_management_slot(s, management_slot_period)) continue;
    if (probes != nullptr) ++probes->slots_scanned;
    if (!conflict_free(tx, sched.slot_transmissions(s))) continue;
    const offset_t c = choose_offset(sched, tx, s, rho, reuse_hops,
                                     policy, isolated, false, probes);
    if (c != k_invalid_offset) return slot_assignment{s, c};
  }
  return std::nullopt;
}

/// Indexed search, one 64-slot bitset word at a time. In each word the
/// window's non-management slots are `live`; the conflict-free ones are
/// `cf`, clear in both endpoints' busy bitsets. At rho = infinity only
/// an empty cell is valid, so the candidates are the cf slots that are
/// not full and the first one answers; at finite rho every cf slot is
/// a candidate, probed in slot order by choose_offset. Probe counts
/// equal the naive scan's and are added per word with popcount: each
/// live slot up to the answer is one scanned slot, and each full cf
/// slot skipped at rho = infinity counts its num_offsets cells as
/// probed, all answered by the index.
std::optional<slot_assignment> find_slot_indexed(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t end, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, probe_counters* probes) {
  constexpr int wb = tsch::schedule::k_word_bits;
  const std::uint64_t* sender_busy = sched.node_busy_words(tx.sender);
  const std::uint64_t* receiver_busy = sched.node_busy_words(tx.receiver);
  const std::uint64_t* full = sched.full_slot_words();
  const auto count = [&](std::uint64_t scanned, std::uint64_t skipped) {
    if (probes == nullptr) return;
    const auto slots = static_cast<std::size_t>(std::popcount(scanned));
    const auto cells = static_cast<std::size_t>(std::popcount(skipped)) *
                       static_cast<std::size_t>(sched.num_offsets());
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
      const offset_t c = choose_offset(sched, tx, s, rho, reuse_hops,
                                       policy, isolated, true, probes);
      if (c != k_invalid_offset) {
        // Slots above the answer were never reached.
        const std::uint64_t reached = ~std::uint64_t{0} >> (wb - 1 - bit);
        count(live & reached, (cf & ~candidates) & reached);
        return slot_assignment{s, c};
      }
    }
    count(live, cf & ~candidates);
  }
  return std::nullopt;
}

}  // namespace

std::optional<slot_assignment> find_slot(
    const tsch::schedule& sched, const tsch::transmission& tx,
    slot_t earliest, slot_t latest, int rho,
    const graph::hop_matrix& reuse_hops, channel_policy policy,
    const std::set<std::pair<node_id, node_id>>* isolated,
    int management_slot_period, bool use_index,
    probe_counters* probes) {
  WSAN_REQUIRE(earliest >= 0, "earliest slot must be non-negative");
  WSAN_REQUIRE(rho >= 0, "rho must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  const slot_t end = std::min<slot_t>(latest, sched.num_slots() - 1);
  if (earliest > end) return std::nullopt;
  return use_index
             ? find_slot_indexed(sched, tx, earliest, end, rho, reuse_hops,
                                 policy, isolated, management_slot_period,
                                 probes)
             : find_slot_naive(sched, tx, earliest, end, rho, reuse_hops,
                               policy, isolated, management_slot_period,
                               probes);
}

}  // namespace wsan::core
