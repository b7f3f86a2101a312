// Flow laxity (Section V-B, Equation 1).
//
// Given that transmission t_ij is placed at slot s and T_post is the set
// of remaining transmissions of the flow instance after t_ij:
//
//   laxity = (d_i - s) - q - |T_post|
//
// where (d_i - s) is the number of slots in (s, d_i], and q counts the
// slots in (s, d_i] that are unusable for the remaining sequence: slots
// already holding a transmission that conflicts with some t in T_post,
// plus slots reserved for management traffic (find_slot never places
// data transmissions there, so counting them as usable would overstate
// laxity and make RC enable reuse later than Algorithm 1 intends). Each
// unusable slot is subtracted exactly once, no matter how many remaining
// transmissions it conflicts with. Laxity >= 0 means enough slots remain
// to deliver the packet by its deadline without channel reuse for the
// rest of this instance.
//
// calculate_laxity is the reference: it rescans the cells of every slot
// of the window. The indexed path is instance_laxity: Algorithm 1 places
// an instance's transmissions in slot order — each search starts right
// after the previous placement — and Eq. 1 for a candidate slot s reads
// only (s, d_i]. While an instance is being placed, every slot its
// laxity evaluations read is therefore unchanged since the instance
// began, and one snapshot taken then serves all of them: per suffix of
// the instance's transmission list, the slots of the window where some
// endpoint of the suffix is busy. An evaluation is then a masked
// popcount over the few words of (s, d_i].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/probe_counters.h"
#include "tsch/schedule.h"
#include "tsch/transmission.h"

namespace wsan::core {

/// Computes Equation 1, the reference oracle. `post` is T_post; `s` the
/// candidate slot of t_ij; `deadline_slot` is d_i (the last usable slot
/// of the instance). `management_slot_period` mirrors find_slot's
/// reservation (0 = none). The unusable slots are counted by scanning
/// the cells of every slot in (s, d_i] (core::conflict_free), never the
/// occupancy index; instance_laxity returns identical values from the
/// index. `probes`, when non-null, accumulates hot-path counters.
long long calculate_laxity(const tsch::schedule& sched,
                           std::span<const tsch::transmission> post,
                           slot_t s, slot_t deadline_slot,
                           int management_slot_period = 0,
                           probe_counters* probes = nullptr);

/// Equation 1 for every transmission of one flow instance from a single
/// snapshot of the schedule's busy-slot bitsets.
class instance_laxity {
 public:
  /// Snapshots, for every suffix txs[j..] (j in [0, txs.size()]), the
  /// slots in [first, min(deadline_slot, H - 1)] where an endpoint of
  /// the suffix sends or receives, management slots cleared. Buffers are
  /// kept across snapshots.
  void snapshot(const tsch::schedule& sched,
                std::span<const tsch::transmission> txs, slot_t first,
                slot_t deadline_slot, int management_slot_period);

  /// Equation 1 with T_post = txs[j..] and t_ij at slot s (s >= first -
  /// 1): equal to calculate_laxity(sched, txs.subspan(j), s,
  /// deadline_slot, management_slot_period) as long as no slot in
  /// (s, deadline_slot] changed since the snapshot.
  long long laxity(std::size_t j, slot_t s,
                   probe_counters* probes = nullptr) const;

 private:
  slot_t first_ = 0;
  slot_t deadline_ = 0;
  slot_t end_ = 0;  // min(deadline, H - 1)
  int period_ = 0;
  std::size_t length_ = 0;      // txs.size()
  std::size_t first_word_ = 0;  // bitset word holding slot first_
  std::size_t words_ = 0;       // words spanning [first_, end_]
  /// The slots of [first_, end_] that are not management slots.
  std::vector<std::uint64_t> window_;
  /// length_ x words_: row j marks the slots where an endpoint of
  /// txs[j..] is busy.
  std::vector<std::uint64_t> busy_;
};

}  // namespace wsan::core
