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
#pragma once

#include <span>

#include "core/probe_counters.h"
#include "tsch/schedule.h"
#include "tsch/transmission.h"

namespace wsan::core {

/// Computes Equation 1. `post` is T_post; `s` the candidate slot of
/// t_ij; `deadline_slot` is d_i (the last usable slot of the instance).
/// `management_slot_period` mirrors find_slot's reservation (0 = none).
///
/// With `use_index` (the default) the unusable-slot count is one pass
/// over the schedule's per-node busy-slot bitsets; otherwise it rescans
/// slot_transmissions() per slot (the reference oracle). Both paths
/// return identical values. `probes`, when non-null, accumulates
/// hot-path counters.
long long calculate_laxity(const tsch::schedule& sched,
                           std::span<const tsch::transmission> post,
                           slot_t s, slot_t deadline_slot,
                           int management_slot_period = 0,
                           bool use_index = true,
                           probe_counters* probes = nullptr);

}  // namespace wsan::core
