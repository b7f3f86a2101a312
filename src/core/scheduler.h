// The scheduling engine: fixed-priority (Deadline Monotonic when flows
// were prioritized that way) transmission scheduling with the three
// channel-reuse policies NR, RA, and RC (Algorithm 1).
#pragma once

#include <vector>

#include "core/config.h"
#include "flow/flow.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"
#include "core/probe_counters.h"

namespace wsan::core {

struct scheduler_stats {
  std::size_t total_transmissions = 0;   ///< attempts scheduled
  std::size_t reuse_placements = 0;      ///< placed into occupied cells
  std::size_t find_slot_calls = 0;
  std::size_t laxity_evaluations = 0;
  /// Times RC switched a transmission from rho = infinity to reuse.
  std::size_t reuse_activations = 0;
  /// Hot-path work: slots scanned, cells probed, checks answered by the
  /// occupancy index (see scheduler_config::use_occupancy_index).
  probe_counters probes;
};

struct schedule_result {
  bool schedulable = false;
  tsch::schedule sched;                  ///< complete iff schedulable
  scheduler_stats stats;
  flow_id first_failed_flow = k_invalid_flow;
};

/// Throws std::invalid_argument unless the configuration is usable:
/// channel count in [1, 16], rho_t >= 1, non-negative retries and
/// management-slot period.
void validate_config(const scheduler_config& config);

/// Schedules all instances of all flows within the hyperperiod.
///
/// Flows must already be in priority order (see flow::assign_priorities)
/// with dense ids. Returns schedulable=false as soon as any transmission
/// cannot be placed by its deadline (Algorithm 1 returns the empty
/// schedule in that case).
schedule_result schedule_flows(const std::vector<flow::flow>& flows,
                               const graph::hop_matrix& reuse_hops,
                               const scheduler_config& config);

/// Places instances [first_instance, end_instance) of one flow into an
/// existing schedule with the exact greedy placement loop of
/// schedule_flows — the resume primitive of incremental delta-scheduling
/// (core::delta_scheduler).
///
/// schedule_flows processes flows strictly in priority order and each
/// flow's placements depend only on the occupancy left by its
/// predecessors, so appending flow n to the schedule produced for flows
/// 0..n-1 yields a schedule placement-identical to
/// schedule_flows(flows 0..n). RC's reuse distance carries across the
/// instances of a flow: `rho` is where the greedy resumes
/// (k_infinite_hops before a flow's first instance, as Algorithm 1
/// starts) and holds the distance in force after the last placed
/// transmission on return. `sched` must span the flow set's hyperperiod
/// (including f).
///
/// Returns false when some transmission cannot be placed by its
/// deadline; placements made before the failure remain in `sched` (roll
/// back with tsch::schedule::remove_flows_from(f.id) when f is the
/// highest id placed). `stats` accumulates across calls.
bool schedule_flow_into(tsch::schedule& sched, const flow::flow& f,
                        int first_instance, int end_instance, int& rho,
                        const graph::hop_matrix& reuse_hops,
                        const scheduler_config& config,
                        scheduler_stats& stats);

/// Records one fully placed flow of `instances` instances: its final
/// reuse distance lands in the core.sched.final_rho histogram (infinite
/// rho in the overflow bucket) and, with an event sink installed, a
/// flow_admitted event is emitted. Called once per flow by
/// schedule_flows and by core::delta_scheduler.
void record_placed_flow(const flow::flow& f, int rho, int instances);

/// Adds one scheduling pass's totals to the core.sched.* and
/// core.probes.* registry counters. The hot path accumulates into the
/// plain scheduler_stats struct; the registry sees the totals once per
/// schedule_flows call and once per delta_scheduler admit or evict.
void flush_scheduler_metrics(const scheduler_stats& stats, bool schedulable);

}  // namespace wsan::core
