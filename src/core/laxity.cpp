#include "core/laxity.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "core/constraints.h"
#include "core/slot_finder.h"
#include "core/probe_counters.h"

namespace wsan::core {

namespace {

/// Rescans the cells of every slot of (s, end]. A slot is unusable if it
/// is management-reserved or conflicts with at least one remaining
/// transmission — and counts once either way.
long long count_unusable_naive(const tsch::schedule& sched,
                               std::span<const tsch::transmission> post,
                               slot_t s, slot_t end, int period) {
  long long unusable = 0;
  for (slot_t k = s + 1; k <= end; ++k) {
    if (is_management_slot(k, period)) {
      ++unusable;
      continue;
    }
    for (const auto& t : post) {
      if (!conflict_free(t, sched, k)) {
        ++unusable;
        break;
      }
    }
  }
  return unusable;
}

}  // namespace

long long calculate_laxity(const tsch::schedule& sched,
                           std::span<const tsch::transmission> post,
                           slot_t s, slot_t deadline_slot,
                           int management_slot_period,
                           probe_counters* probes) {
  WSAN_REQUIRE(s >= 0, "slot must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  const long long window = static_cast<long long>(deadline_slot) - s;
  // With nothing left to place, no slot in the window is needed.
  if (post.empty()) return window;

  const slot_t end = std::min<slot_t>(deadline_slot, sched.num_slots() - 1);
  long long unusable = 0;
  if (end > s) {
    if (probes != nullptr)
      probes->slots_scanned += static_cast<std::size_t>(end - s);
    unusable = count_unusable_naive(sched, post, s, end,
                                    management_slot_period);
  }
  return window - unusable - static_cast<long long>(post.size());
}

void instance_laxity::snapshot(const tsch::schedule& sched,
                               std::span<const tsch::transmission> txs,
                               slot_t first, slot_t deadline_slot,
                               int management_slot_period) {
  WSAN_REQUIRE(first >= 0, "slot must be non-negative");
  WSAN_REQUIRE(management_slot_period >= 0,
               "management slot period must be non-negative");
  first_ = first;
  deadline_ = deadline_slot;
  end_ = std::min<slot_t>(deadline_slot, sched.num_slots() - 1);
  length_ = txs.size();
  constexpr int wb = tsch::schedule::k_word_bits;
  first_word_ = static_cast<std::size_t>(first) / wb;
  words_ = end_ < first_
               ? 0
               : static_cast<std::size_t>(end_) / wb - first_word_ + 1;
  // The window's slots, less the management slots: those are counted
  // apart, and a conflicting one must not count twice.
  window_.resize(words_);
  for (std::size_t w = 0; w < words_; ++w)
    window_[w] =
        tsch::schedule::slot_range_bits(first_word_ + w, first_, end_) &
        ~management_slot_bits(first_word_ + w, management_slot_period);
  period_ = management_slot_period;

  // Row j is row j + 1 plus the busy slots of txs[j]'s endpoints: a slot
  // conflicts with some t in txs[j..] iff one of t's endpoints is busy
  // in it. The attempts over one link share their endpoints, and so
  // their rows.
  busy_.resize(length_ * words_);
  const std::uint64_t* next = nullptr;
  for (std::size_t j = length_; j-- > 0;) {
    std::uint64_t* row = busy_.data() + j * words_;
    const auto& t = txs[j];
    if (next != nullptr && t.sender == txs[j + 1].sender &&
        t.receiver == txs[j + 1].receiver) {
      std::copy_n(next, words_, row);
    } else {
      const std::uint64_t* sender = sched.node_busy_words(t.sender);
      const std::uint64_t* receiver = sched.node_busy_words(t.receiver);
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = next != nullptr ? next[w] : 0;
        if (sender != nullptr) bits |= sender[first_word_ + w];
        if (receiver != nullptr) bits |= receiver[first_word_ + w];
        row[w] = bits;
      }
    }
    next = row;
  }
}

long long instance_laxity::laxity(std::size_t j, slot_t s,
                                  probe_counters* probes) const {
  WSAN_REQUIRE(j <= length_, "suffix start beyond the instance");
  WSAN_REQUIRE(s >= 0 && s + 1 >= first_,
               "slot before the snapshot window");
  const long long window = static_cast<long long>(deadline_) - s;
  // With nothing left to place, no slot in the window is needed.
  if (j == length_) return window;

  long long unusable = 0;
  if (end_ > s) {
    if (probes != nullptr) {
      probes->slots_scanned += static_cast<std::size_t>(end_ - s);
      probes->index_hits += static_cast<std::size_t>(end_ - s);
    }
    if (period_ > 0)  // management slots in (s, end]: multiples of period
      unusable += end_ / period_ - s / period_;
    constexpr int wb = tsch::schedule::k_word_bits;
    const std::uint64_t* row = busy_.data() + j * words_;
    // Words of (s, end]; the first one loses the slots up to s.
    std::size_t w = static_cast<std::size_t>(s + 1) / wb - first_word_;
    std::uint64_t from = ~std::uint64_t{0}
                         << (static_cast<std::size_t>(s + 1) % wb);
    for (; w < words_; ++w) {
      unusable += std::popcount(row[w] & window_[w] & from);
      from = ~std::uint64_t{0};
    }
  }
  return window - unusable - static_cast<long long>(length_ - j);
}

}  // namespace wsan::core
