// The WirelessHART network manager (Section III).
//
// The manager owns the network lifecycle: it holds the collected
// topology, derives the communication and channel-reuse graphs, routes
// and schedules its admitted workload, consumes the nodes' health
// reports, runs the reliability-degradation classifier, and repairs the
// schedule by isolating links that channel reuse degrades and by routing
// around nodes its watchdog declares dead. This facade is the
// public entry point a deployment would use; the lower-level modules
// remain available for research workflows.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/delta.h"
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
  /// hop matrix). The held workload starts empty.
  network_manager(topo::topology topology, manager_config config);

  /// The topology, channel list, communication graph, channel-reuse
  /// graph and its hop matrix the manager routes and schedules on.
  const graph::network_view& view() const { return *view_; }
  /// G_c without the edges of dead nodes (ids preserved): the graph
  /// arrivals and repairs are routed on. G_c itself while no node is
  /// dead; rebuilt only when the dead set changes.
  const graph::graph& live_comm() const {
    return dead_.empty() ? view_->comm : live_comm_;
  }
  const core::link_set& isolated_links() const { return isolated_; }

  /// Generates a random workload on this network (routes included).
  flow::flow_set generate_workload(const flow::flow_set_params& params,
                                   rng& gen) const;

  /// The reference admission: schedules `flows` from scratch
  /// (core::schedule_flows) under the configured policy plus the
  /// accumulated link isolations. The result's schedulable flag is the
  /// admission decision. The held workload below equals admit(flows())
  /// after every operation.
  core::schedule_result admit(const std::vector<flow::flow>& flows) const;

  // -- The held workload ---------------------------------------------
  // The admitted workload and its schedule live in one
  // core::delta_scheduler: arrivals, departures and shedding repair it
  // in place, and an isolation or a reroute rebuilds it.

  /// Hands the manager its workload: replaces the held workload with
  /// `flows` (dense ids in priority order; std::invalid_argument
  /// otherwise, and the held workload is unchanged) scheduled as admit
  /// schedules them. Returns schedulable(); a workload that does not
  /// fit is held as admit leaves it, ready for shed_to_fit.
  bool assign(std::vector<flow::flow> flows);
  /// The held flows: dense ids in priority order.
  const std::vector<flow::flow>& flows() const { return held_.flows(); }
  /// Their schedule; complete iff schedulable().
  const tsch::schedule& schedule() const { return held_.sched(); }
  bool schedulable() const { return held_.schedulable(); }
  /// Leading held flows fully placed: flows().size() when schedulable(),
  /// else the id of the flow that failed.
  std::size_t placed() const { return held_.placed(); }

  /// Admits `f` as the held workload's new lowest-priority flow (the
  /// next dense id). Refused, with nothing changed, when the held
  /// workload plus f does not fit — the verdict of admit on them.
  bool admit_flow(flow::flow f);

  /// Evicts the held flows with ids `ids` (strictly ascending, each a
  /// held id; std::invalid_argument otherwise). The rest keep their
  /// order under dense ids.
  void evict_flows(std::span<const flow_id> ids);

  /// Shed-to-fit: drops the held workload's lowest-priority flows until
  /// the rest is schedulable and returns how many it dropped — the tail
  /// of flows(), since ids are priority ranks. The drop order is fixed
  /// by the priority assignment, so two managers holding the same
  /// workload shed the same flows; an empty remainder is schedulable.
  std::size_t shed_to_fit();

  /// One maintenance cycle (a health-report epoch) on the held
  /// workload: classify every reuse-associated link from the reported
  /// observations; if any link is degraded by channel reuse, isolate it
  /// and reschedule the held workload under the new isolation set.
  struct maintenance_outcome {
    std::vector<detect::link_report> reports;
    core::link_set newly_isolated;
    /// True iff the held workload was rescheduled; schedulable() says
    /// whether it still fits.
    bool rescheduled = false;
  };

  maintenance_outcome maintain(
      const std::map<sim::link_key, sim::link_observations>& observations);

  /// One fault-recovery epoch on the held workload. The watchdog side:
  /// every node that appears as a sender in the flows' routes is
  /// expected to deliver health reports (it is the reporter of its
  /// outgoing links); a node whose reports miss `watchdog_epochs`
  /// consecutive epochs is declared dead. The recovery side: flows
  /// riding a dead node are re-routed around it on live_comm(); flows
  /// whose endpoint or access-point infrastructure died are dropped; the
  /// survivors become the held workload, and when it no longer fits,
  /// load is shed in priority order (shed_to_fit).
  ///
  /// Every flow id in the outcome is an id of flows() as the call found
  /// it. The survivors are renumbered densely, so a caller that keeps
  /// its own map back to the flows it first assigned composes
  /// surviving_input_ids into it.
  struct recovery_outcome {
    /// Maintenance epoch index (0-based, counts recover() calls).
    int epoch = 0;
    /// Expected reporters not heard from this epoch (watchdog counting).
    std::vector<node_id> silent_nodes;
    /// Nodes declared dead this epoch.
    std::vector<node_id> newly_dead;
    /// Previously-dead nodes whose health reports resumed this epoch.
    /// They are removed from the dead set immediately (a reporting node
    /// is alive by definition) and from live_comm()'s; routing held
    /// flows back over them is the caller's decision (assign).
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
    /// True iff a node died this epoch and the held workload was
    /// repaired: flows() and schedule() are the survivors' (schedulable).
    bool rescheduled = false;
    /// Input id of each held flow after the call, aligned with flows().
    /// Empty when nothing was rescheduled.
    std::vector<flow_id> surviving_input_ids;
  };

  /// Feeds one epoch of health reports to the watchdog and repairs the
  /// held workload when nodes are declared dead. `observations` are
  /// this epoch's reports only (one simulator execution per epoch, as
  /// in maintain()).
  recovery_outcome recover(
      const std::map<sim::link_key, sim::link_observations>& observations);

  /// Nodes the watchdog declared dead.
  const std::set<node_id>& dead_nodes() const { return dead_; }

 private:
  /// The scheduler configuration every scheduling path must use:
  /// config_.scheduler with the manager-owned isolation set applied.
  /// isolated_ is the single owner of isolation state — the stored
  /// config's own isolated_links is drained into it at construction
  /// and stays empty from then on, so admit and the held workload
  /// cannot diverge on which links are isolated.
  core::scheduler_config effective_scheduler_config() const;

  manager_config config_;
  /// Shared and immutable: held_ points into its hop matrix, so the
  /// view must not move when the manager does.
  std::shared_ptr<const graph::network_view> view_;
  core::link_set isolated_;
  core::delta_scheduler held_;  // == admit(held_.flows()) at all times
  // Fault-recovery state.
  std::set<node_id> dead_;
  graph::graph live_comm_;                // G_c minus dead_ (non-empty)
  std::map<node_id, int> silent_epochs_;  // consecutive missed epochs
  int epoch_ = 0;                         // recover() calls so far
};

}  // namespace wsan::manager
