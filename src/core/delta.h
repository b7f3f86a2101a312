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
//   * a state that is not a complete schedule (a previous replay failed
//     at some flow) is the oracle's partial schedule: the flows before
//     the failed one are complete and canonical, so an eviction replays
//     from the earlier of the evicted and the failed flow, and an
//     admission is refused outright (the prefix fails whatever joins at
//     the lowest priority).
//
// The class maintains the canonical invariant that its (schedule,
// schedulable) state always equals the schedule_flows result for its
// current flow set, so the full reschedule stays available as an
// equivalence oracle (tests/fleet_equivalence_test.cpp asserts
// placement-level identity after randomized admit/evict traces). No
// request falls back to a full rerun.
#pragma once

#include <cstddef>
#include <vector>

#include "core/scheduler.h"

namespace wsan::core {

class delta_scheduler {
 public:
  /// `reuse_hops` must outlive the scheduler. `config` is fixed for the
  /// lifetime (isolation changes require a rebuild; use a fresh
  /// instance). Throws std::invalid_argument when config is unusable
  /// (validate_config).
  delta_scheduler(const graph::hop_matrix& reuse_hops,
                  scheduler_config config);

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
    /// False: no flow with that id (state unchanged).
    bool evicted = false;
    /// The evicted flow's placements freed from the grid.
    std::size_t freed = 0;
    /// Lower-priority flows replayed to restore canonicity.
    std::size_t rescheduled_flows = 0;
  };

  /// Evicts the flow with dense id `id`; higher ids shift down by one.
  evict_outcome evict_flow(flow_id id);

  /// Current flow set in priority order with dense ids.
  const std::vector<flow::flow>& flows() const { return flows_; }
  /// The maintained schedule; meaningful iff schedulable() (mirrors
  /// schedule_result::sched being complete iff schedulable).
  const tsch::schedule& sched() const { return sched_; }
  /// True iff every flow in flows() is fully placed. Can only be false
  /// after an eviction whose repair failed — a greedy scheduling
  /// anomaly; admissions never leave a false state behind because they
  /// roll back.
  bool schedulable() const { return placed_ == flows_.size(); }
  const scheduler_config& config() const { return config_; }
  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }

 private:
  std::size_t placements_of(flow_id id) const;
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
