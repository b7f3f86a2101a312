// Incremental delta-scheduling: admit or evict one flow by repairing an
// existing schedule instead of re-running the scheduler from scratch.
//
// The fleet service (src/fleet) serves a high-rate admission/removal
// stream across thousands of tenant networks; re-running schedule_flows
// end-to-end on every request — the paper's manager behaviour — costs
// O(all transmissions) per request. This module exploits two structural
// properties of the greedy scheduler:
//
//   * prefix: schedule_flows processes flows strictly in priority order,
//     and each flow's placements depend only on the occupancy left by
//     higher-priority flows;
//   * blocks: every instance window [rP, rP+D-1] lies inside one
//     hyperperiod block (P divides the hyperperiod H, D <= P), and the
//     greedy only reads occupancy inside the window, so the first H
//     slots of the schedule on any multiple of H equal the schedule on
//     H. RC's reuse distance rho carries across the instances of a flow,
//     so a flow's later blocks resume from the rho its earlier ones
//     ended with.
//
// Hence
//
//   * admitting a new lowest-priority flow is an exact *resumption* of
//     the greedy (schedule_flow_into) against the existing occupancy
//     index, including the rejection verdict; a failed admission rolls
//     back with tsch::schedule::remove_flows_from;
//   * an admission that grows the hyperperiod H -> H' keeps the H
//     schedule as block 0 of the H' grid and resumes every flow's
//     greedy over the new blocks, in priority order, before placing the
//     new flow;
//   * evicting a flow frees it and the lower-priority suffix in one pass
//     (tsch::schedule::remove_flows_from) and replays the suffix; when
//     the hyperperiod shrinks, the prefix keeps its placements below the
//     new hyperperiod;
//   * evicting several flows at once (a batch) frees them and the suffix
//     after the lowest of them in the same one pass and replays the
//     survivors of that suffix once;
//   * a state that is not a complete schedule (a build or a replay
//     failed at some flow) is the oracle's partial schedule: the flows
//     before the failed one are complete and canonical, so an eviction
//     replays from the earlier of the lowest evicted and the failed
//     flow, and an admission is refused outright (the prefix fails
//     whatever joins at the lowest priority).
//
// The class maintains the canonical invariant that its (schedule,
// schedulable) state always equals the schedule_flows result for its
// current flow set, so the full reschedule stays available as an
// equivalence oracle (tests/fleet_equivalence_test.cpp asserts
// placement-level identity after randomized admit/evict traces). Only
// construction from a flow set runs the greedy over every flow, exactly
// as schedule_flows does; no admission or eviction falls back to it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/scheduler.h"

namespace wsan::core {

class delta_scheduler {
 public:
  /// `reuse_hops` must outlive the scheduler. `config` is fixed for the
  /// lifetime (isolation changes require a rebuild; use a fresh
  /// instance). Throws std::invalid_argument when config is unusable
  /// (validate_config).
  ///
  /// `flows` seeds the state: they are scheduled as schedule_flows
  /// schedules them, placement for placement and verdict for verdict, so
  /// a set that does not fit leaves an incomplete base (the failed
  /// flow's partial placements stay, later flows are not attempted).
  /// They must be in priority order with dense ids, as schedule_flows
  /// requires (std::invalid_argument otherwise); an empty set is the
  /// empty schedule.
  delta_scheduler(const graph::hop_matrix& reuse_hops,
                  scheduler_config config,
                  std::vector<flow::flow> flows = {});

  struct admit_outcome {
    /// False: the flow does not fit (state unchanged). The verdict
    /// equals what a full schedule_flows rerun on flows()+f would say.
    bool admitted = false;
    /// Dense id assigned to the admitted flow (= flows().size()-1).
    flow_id id = k_invalid_flow;
    /// Transmissions placed for the new flow.
    std::size_t placed = 0;
  };

  /// Admits `f` as the new lowest-priority flow. f.id is ignored; the
  /// next dense id is assigned. Throws std::invalid_argument when f is
  /// structurally invalid (flow::validate_flow).
  admit_outcome admit_flow(flow::flow f);

  struct evict_outcome {
    /// False: no id given, or an id names no flow (state unchanged).
    bool evicted = false;
    /// The evicted flows' placements freed from the grid.
    std::size_t freed = 0;
    /// Lower-priority flows replayed to restore canonicity.
    std::size_t rescheduled_flows = 0;
  };

  /// Evicts the flows with dense ids `ids`, which must be strictly
  /// ascending (std::invalid_argument otherwise). The survivors keep
  /// their order and are renumbered densely, and the suffix is replayed
  /// once, from the lowest evicted id (or from the failed flow of an
  /// incomplete base, when that comes first).
  evict_outcome evict_flows(std::span<const flow_id> ids);

  /// Evicts the flow with dense id `id`; higher ids shift down by one.
  evict_outcome evict_flow(flow_id id) { return evict_flows({&id, 1}); }

  /// Current flow set in priority order with dense ids.
  const std::vector<flow::flow>& flows() const { return flows_; }
  /// The maintained schedule; meaningful iff schedulable() (mirrors
  /// schedule_result::sched being complete iff schedulable).
  const tsch::schedule& sched() const { return sched_; }
  /// True iff every flow in flows() is fully placed. Can only be false
  /// after a construction whose flow set does not fit or an eviction
  /// whose repair failed (a greedy scheduling anomaly); admissions never
  /// leave a false state behind because they roll back.
  bool schedulable() const { return placed_ == flows_.size(); }
  /// Leading flows fully placed: size() when schedulable(), else the id
  /// of the flow that failed (schedule_result::first_failed_flow).
  std::size_t placed() const { return placed_; }
  const scheduler_config& config() const { return config_; }
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }

 private:
  /// Places f's instances from rho.size() up to the end of `sched`'s
  /// hyperperiod, resuming from rho.back() (infinite for a fresh flow)
  /// and appending the rho in force after each instance.
  bool resume(tsch::schedule& sched, const flow::flow& f,
              std::vector<int>& rho, scheduler_stats& stats) const;

  const graph::hop_matrix* reuse_hops_;
  scheduler_config config_;
  std::vector<flow::flow> flows_;  // dense ids == priority ranks
  /// Per flow, RC's reuse distance after each placed instance: growth
  /// resumes a flow from back(), shrink truncates to the new instance
  /// count.
  std::vector<std::vector<int>> rho_;
  tsch::schedule sched_;           // == schedule_flows(flows_).sched
  /// Leading flows fully placed; the next one, if any, failed.
  std::size_t placed_ = 0;
};

}  // namespace wsan::core
