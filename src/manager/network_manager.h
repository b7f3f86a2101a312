// The WirelessHART network manager (Section III).
//
// The manager owns the network lifecycle: it holds the collected
// topology, derives the communication and channel-reuse graphs, routes
// and schedules workloads, consumes the nodes' health reports, runs the
// reliability-degradation classifier, and repairs the schedule by
// isolating links that channel reuse degrades. This facade is the
// public entry point a deployment would use; the lower-level modules
// remain available for research workflows.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/scheduler.h"
#include "detect/detector.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace wsan::manager {

struct manager_config {
  /// Number of channels in use (channels 11..11+n-1).
  int num_channels = 4;
  /// Scheduling configuration; num_channels is kept in sync with the
  /// manager's channel count.
  core::scheduler_config scheduler = core::make_config(
      core::algorithm::rc, 4);
  detect::detection_policy detection;
  /// Health-report watchdog (recover()): a node expected to report whose
  /// reports miss this many consecutive epochs is declared dead. A
  /// silent node is indistinguishable from a crashed one — exactly the
  /// WirelessHART manager's situation — so the watchdog is the manager's
  /// only crash detector.
  int watchdog_epochs = 2;
};

class network_manager {
 public:
  /// Builds the manager from a collected topology: derives the channel
  /// list and the network view on it (both graphs and the reuse-graph
  /// hop matrix).
  network_manager(topo::topology topology, manager_config config);

  /// The topology, channel list, communication graph, channel-reuse
  /// graph and its hop matrix the manager routes and schedules on.
  const graph::network_view& view() const { return view_; }
  const core::link_set& isolated_links() const { return isolated_; }

  /// Generates a random workload on this network (routes included).
  flow::flow_set generate_workload(const flow::flow_set_params& params,
                                   rng& gen) const;

  /// Admits a workload: schedules it under the configured policy plus
  /// any accumulated link isolations. The result's schedulable flag is
  /// the admission decision.
  core::schedule_result admit(const std::vector<flow::flow>& flows) const;

  /// Shed-to-fit admission: admits `flows` and, while the result is
  /// unschedulable, drops the last (lowest-priority) flow and admits
  /// again. `flows` must hold dense ids in priority order (admit throws
  /// std::invalid_argument otherwise, before anything is dropped); on
  /// return it holds the kept prefix, so the shed flows are the input's
  /// tail. The drop order is fixed by the priority assignment, so two
  /// managers looking at the same workload shed the same flows. An
  /// empty remainder is a schedulable empty result.
  core::schedule_result admit_shedding(std::vector<flow::flow>& flows) const;

  /// One maintenance cycle (a health-report epoch): classify every
  /// reuse-associated link from the reported observations; if any link
  /// is degraded by channel reuse, isolate it and recompute the
  /// schedule.
  struct maintenance_outcome {
    std::vector<detect::link_report> reports;
    core::link_set newly_isolated;
    bool rescheduled = false;
    /// The repaired schedule when rescheduled is true.
    std::optional<core::schedule_result> repaired;
  };

  maintenance_outcome maintain(
      const std::vector<flow::flow>& flows,
      const std::map<sim::link_key, sim::link_observations>& observations);

  /// One fault-recovery epoch. The watchdog side: every node that
  /// appears as a sender in the flows' routes is expected to deliver
  /// health reports (it is the reporter of its outgoing links); a node
  /// whose reports miss `watchdog_epochs` consecutive epochs is declared
  /// dead. The recovery side: flows riding a dead node are re-routed
  /// around it on the pruned communication graph; flows whose endpoint
  /// or access-point infrastructure died are dropped; and when the
  /// repaired workload no longer fits, load is shed in priority order
  /// (admit_shedding) until the remainder is schedulable.
  ///
  /// Every flow id in the outcome is an id of the `flows` argument.
  /// surviving_flows are renumbered densely, so a caller that feeds them
  /// into a later recover() keeps its own map back to the flows it first
  /// admitted (surviving_input_ids composes into it).
  struct recovery_outcome {
    /// Maintenance epoch index (0-based, counts recover() calls).
    int epoch = 0;
    /// Expected reporters not heard from this epoch (watchdog counting).
    std::vector<node_id> silent_nodes;
    /// Nodes declared dead this epoch.
    std::vector<node_id> newly_dead;
    /// Previously-dead nodes whose health reports resumed this epoch.
    /// They are removed from the dead set immediately (a reporting node
    /// is alive by definition); re-routing flows back over them is the
    /// caller's decision at the next admission.
    std::vector<node_id> rehabilitated;
    /// Consecutive silent epochs before the declaration (0 when no node
    /// was declared dead this epoch) — the detection latency.
    int detection_latency_epochs = 0;
    /// Input ids of flows re-routed around dead nodes.
    std::vector<flow_id> rerouted_flows;
    /// Input ids of flows with no surviving route (dead endpoint, dead
    /// access point, or partitioned network). Always dropped.
    std::vector<flow_id> unroutable_flows;
    /// Input ids of flows shed for schedulability, in drop order
    /// (lowest priority first).
    std::vector<flow_id> shed_flows;
    /// True iff a node died this epoch and a new schedule was computed.
    bool rescheduled = false;
    /// The repaired schedule (for surviving_flows) when rescheduled.
    std::optional<core::schedule_result> repaired;
    /// Surviving workload with dense re-assigned ids (priority order
    /// preserved) — what the manager distributes next.
    std::vector<flow::flow> surviving_flows;
    /// Input id of each surviving flow, aligned with surviving_flows.
    std::vector<flow_id> surviving_input_ids;
  };

  /// Feeds one epoch of health reports to the watchdog and repairs the
  /// network when nodes are declared dead. `observations` are this
  /// epoch's reports only (one simulator execution per epoch, as in
  /// maintain()).
  recovery_outcome recover(
      const std::vector<flow::flow>& flows,
      const std::map<sim::link_key, sim::link_observations>& observations);

  /// Nodes the watchdog (or an operator via mark_dead) declared dead.
  const std::set<node_id>& dead_nodes() const { return dead_; }

  /// Declares a node dead out-of-band (operator knowledge, e.g. a
  /// planned decommissioning). The next recover() routes around it.
  void mark_dead(node_id node);

  /// Forgets all deaths and watchdog counters (e.g. after the field
  /// crew replaced the hardware).
  void reset_watchdog() {
    dead_.clear();
    silent_epochs_.clear();
  }

  /// Drops all accumulated isolations (e.g. after the interference
  /// environment changed and the links were re-validated).
  void reset_isolations() { isolated_.clear(); }

  /// Blacklists channels (TSCH channel blacklisting, Section III-A —
  /// e.g. the four channels a diagnosed WiFi access point jams) and
  /// rebuilds the network view from the remaining spectrum. Existing
  /// schedules must be re-admitted afterwards; accumulated isolations
  /// are kept (they describe node geometry, not channels). Throws if
  /// fewer than num_channels usable channels remain.
  void blacklist_channels(const std::vector<channel_t>& blacklist);

 private:
  /// The scheduler configuration every scheduling path must use:
  /// config_.scheduler with the manager-owned isolation set applied.
  /// isolated_ is the single owner of isolation state — the stored
  /// config's own isolated_links is drained into it at construction
  /// and stays empty from then on, so admit/maintain/recover cannot
  /// diverge on which links are isolated.
  core::scheduler_config effective_scheduler_config() const;

  manager_config config_;
  graph::network_view view_;
  core::link_set isolated_;
  // Fault-recovery state.
  std::set<node_id> dead_;
  std::map<node_id, int> silent_epochs_;  // consecutive missed epochs
  int epoch_ = 0;                         // recover() calls so far
};

}  // namespace wsan::manager
