// Rescheduling when the workload no longer fits: priority-ordered load
// shedding. (Reassigning the links whose reliability channel reuse
// degrades, Section VI, is manager::network_manager::maintain: it
// reruns the scheduler with those links in scheduler_config's
// isolated_links.)
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace wsan::core {

/// A set of directed links (sender, receiver).
using link_set = std::set<std::pair<node_id, node_id>>;

/// Graceful degradation: when the workload no longer fits (e.g. after a
/// node death forced longer detours), shed load by dropping the
/// lowest-priority flow — the highest id, since id order is priority
/// order — one at a time until the remainder is schedulable. The drop
/// order is fully determined by the priority assignment, so two managers
/// looking at the same workload shed the same flows.
struct shed_result {
  /// Schedule for the surviving flows (as renumbered in `kept`);
  /// schedulable is true even when everything was shed (an empty
  /// workload trivially fits).
  schedule_result result;
  /// Surviving flows in priority order, renumbered to dense ids
  /// (0..kept.size()-1). When the input already had dense ids in
  /// priority order this leaves them untouched.
  std::vector<flow::flow> kept;
  /// Input id of each kept flow, aligned with `kept` — the caller's
  /// handle for mapping the renumbered survivors back to its own ids.
  std::vector<flow_id> kept_input_ids;
  /// Input ids of dropped flows, in drop order (lowest priority first,
  /// i.e. descending id).
  std::vector<flow_id> shed;
};

/// Schedules `flows` under `config`, shedding the lowest-priority flow
/// (the highest id — ids are priority ranks but need not arrive sorted
/// or dense) until the result is schedulable. Throws
/// std::invalid_argument on duplicate ids.
shed_result schedule_shedding(std::vector<flow::flow> flows,
                              const graph::hop_matrix& reuse_hops,
                              const scheduler_config& config);

}  // namespace wsan::core
