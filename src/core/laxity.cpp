#include "core/laxity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "core/constraints.h"
#include "core/slot_finder.h"
#include "obs/trace.h"
#include "core/probe_counters.h"

namespace wsan::core {

namespace {

/// Reference oracle: rescan every slot's transmission list. A slot is
/// unusable if it is management-reserved or conflicts with at least one
/// remaining transmission — and counts once either way.
long long count_unusable_naive(const tsch::schedule& sched,
                               std::span<const tsch::transmission> post,
                               slot_t s, slot_t end, int period) {
  long long unusable = 0;
  for (slot_t k = s + 1; k <= end; ++k) {
    if (is_management_slot(k, period)) {
      ++unusable;
      continue;
    }
    const auto& slot_txs = sched.slot_transmissions(k);
    for (const auto& t : post) {
      if (!conflict_free(t, slot_txs)) {
        ++unusable;
        break;
      }
    }
  }
  return unusable;
}

/// Indexed path: OR the busy-slot bitsets of every node the remaining
/// sequence touches, one pass over the window's words. A slot conflicts
/// with some t in T_post iff one of t's endpoints is busy in it, so the
/// OR mask marks exactly the conflicting slots.
long long count_unusable_indexed(
    const tsch::schedule& sched,
    std::span<const tsch::transmission> post, slot_t s, slot_t end,
    int period) {
  // Row pointers for every endpoint of the remaining sequence.
  // Duplicates only re-OR identical words, so instead of a full dedup
  // we just skip the adjacent repeats produced by per-link retry
  // attempts (same sender/receiver as the previous transmission). The
  // buffer is reused across calls — RC evaluates laxity once per
  // find_slot probe, so per-call allocation would dominate the scan.
  static thread_local std::vector<const std::uint64_t*> rows;
  rows.clear();
  rows.reserve(post.size() * 2);
  const tsch::transmission* prev = nullptr;
  for (const auto& t : post) {
    if (prev != nullptr && prev->sender == t.sender &&
        prev->receiver == t.receiver)
      continue;
    prev = &t;
    if (const std::uint64_t* words = sched.node_busy_words(t.sender))
      rows.push_back(words);
    if (const std::uint64_t* words = sched.node_busy_words(t.receiver))
      rows.push_back(words);
  }

  long long unusable = 0;
  if (period > 0)  // management slots in (s, end]: multiples of period
    unusable += end / period - s / period;

  constexpr int wb = tsch::schedule::k_word_bits;
  const std::size_t first = static_cast<std::size_t>(s + 1) / wb;
  const std::size_t last = static_cast<std::size_t>(end) / wb;
  for (std::size_t w = first; w <= last && !rows.empty(); ++w) {
    std::uint64_t mask = 0;
    for (const std::uint64_t* row : rows) mask |= row[w];
    if (w == first)
      mask &= ~std::uint64_t{0} << (static_cast<std::size_t>(s + 1) % wb);
    if (w == last) {
      const std::size_t top = static_cast<std::size_t>(end) % wb;
      if (top + 1 < wb) mask &= (std::uint64_t{1} << (top + 1)) - 1;
    }
    if (mask == 0) continue;
    if (period > 0) {
      // Management slots are already counted above; a conflicting
      // management slot must not be counted twice.
      for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
        const slot_t k = static_cast<slot_t>(w * wb) +
                         std::countr_zero(bits);
        if (!is_management_slot(k, period)) ++unusable;
      }
    } else {
      unusable += std::popcount(mask);
    }
  }
  return unusable;
}

}  // namespace

long long calculate_laxity(const tsch::schedule& sched,
                           std::span<const tsch::transmission> post,
                           slot_t s, slot_t deadline_slot,
                           int management_slot_period, bool use_index,
                           probe_counters* probes) {
  OBS_SPAN("core.laxity");
  WSAN_REQUIRE(s >= 0, "slot must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  const long long window = static_cast<long long>(deadline_slot) - s;
  // With nothing left to place, no slot in the window is needed.
  if (post.empty()) return window;

  const slot_t end = std::min<slot_t>(deadline_slot, sched.num_slots() - 1);
  long long unusable = 0;
  if (end > s) {
    if (probes != nullptr) {
      probes->slots_scanned += static_cast<std::size_t>(end - s);
      if (use_index)
        probes->index_hits += static_cast<std::size_t>(end - s);
    }
    unusable = use_index
                   ? count_unusable_indexed(sched, post, s, end,
                                            management_slot_period)
                   : count_unusable_naive(sched, post, s, end,
                                          management_slot_period);
  }
  return window - unusable - static_cast<long long>(post.size());
}

}  // namespace wsan::core
