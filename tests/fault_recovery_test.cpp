// End-to-end fault recovery: watchdog detection, rerouting around dead
// nodes, and priority-ordered load shedding (the ISSUE's acceptance
// scenario: crash one relay on WUSTL, watch the manager detect and
// repair, and check the survivors' delivery returns to baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "flow/router.h"
#include "graph/algorithms.h"
#include "manager/network_manager.h"
#include "sim/faults.h"
#include "topo/testbeds.h"

namespace wsan::manager {
namespace {

manager_config rc_config(int channels = 4) {
  manager_config config;
  config.num_channels = channels;
  config.scheduler = core::make_config(core::algorithm::rc, channels);
  return config;
}

/// The busiest pure relay: forwards for the most flows while being
/// nobody's source or destination.
node_id pick_relay(const std::vector<flow::flow>& flows) {
  std::set<node_id> endpoints;
  for (const auto& f : flows) {
    endpoints.insert(f.source);
    endpoints.insert(f.destination);
  }
  std::map<node_id, int> forwards;
  for (const auto& f : flows)
    for (std::size_t i = 1; i < f.route.size(); ++i)
      ++forwards[f.route[i].sender];
  node_id best = k_invalid_node;
  int best_count = 0;
  for (const auto& [node, count] : forwards) {
    if (endpoints.count(node) > 0) continue;
    if (count > best_count) {
      best = node;
      best_count = count;
    }
  }
  return best;
}

/// Fabricated all-healthy health reports: one perfect contention-free
/// sample per route link, keyed by sender as the simulator reports.
std::map<sim::link_key, sim::link_observations> healthy_reports(
    const std::vector<flow::flow>& flows) {
  std::map<sim::link_key, sim::link_observations> reports;
  for (const auto& f : flows) {
    for (const auto& l : f.route) {
      auto& obs = reports[sim::link_key{l.sender, l.receiver}];
      if (obs.cf_samples.empty()) obs.cf_samples.emplace_back(0, 1.0);
      obs.cf_attempts += 10;
      obs.cf_successes += 10;
    }
  }
  return reports;
}

/// A node the watchdog certainly expects reports from: the second-link
/// sender of any multi-hop flow. pick_relay can return k_invalid_node on
/// small workloads; this cannot (as long as one flow has two hops).
node_id some_expected_relay(const std::vector<flow::flow>& flows) {
  const node_id strict = pick_relay(flows);
  if (strict != k_invalid_node) return strict;
  for (const auto& f : flows)
    if (f.route.size() >= 2) return f.route[1].sender;
  return k_invalid_node;
}

/// Removes every stream the node reports (it is the sender) — what the
/// manager sees when the node crashes or its reports are suppressed.
void mute(std::map<sim::link_key, sim::link_observations>& reports,
          node_id node) {
  std::erase_if(reports,
                [&](const auto& kv) { return kv.first.sender == node; });
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  FaultRecoveryTest() : manager_(topo::make_wustl(), rc_config()) {}

  flow::flow_set workload(int flows, std::uint64_t seed) {
    flow::flow_set_params params;
    params.num_flows = flows;
    params.period_min_exp = 0;
    params.period_max_exp = 0;
    rng gen(seed);
    return manager_.generate_workload(params, gen);
  }

  network_manager manager_;
};

// ------------------------------------------------------------ watchdog --

TEST_F(FaultRecoveryTest, WatchdogDeclaresDeathAfterConsecutiveSilence) {
  const auto set = workload(12, 11);
  ASSERT_TRUE(manager_.assign(set.flows));
  const node_id victim = some_expected_relay(set.flows);
  ASSERT_NE(victim, k_invalid_node);

  auto reports = healthy_reports(set.flows);
  mute(reports, victim);

  // First silent epoch: counting, not yet dead (watchdog_epochs == 2).
  const auto first = manager_.recover(reports);
  EXPECT_EQ(first.silent_nodes, std::vector<node_id>{victim});
  EXPECT_TRUE(first.newly_dead.empty());
  EXPECT_FALSE(first.rescheduled);
  EXPECT_TRUE(manager_.dead_nodes().empty());

  // Second consecutive silent epoch: declared dead, repair computed.
  const auto second = manager_.recover(reports);
  EXPECT_EQ(second.newly_dead, std::vector<node_id>{victim});
  EXPECT_EQ(second.detection_latency_epochs, 2);
  EXPECT_TRUE(second.rescheduled);
  EXPECT_EQ(manager_.dead_nodes().count(victim), 1u);

  // A dead node owes no reports: no further silence, no re-declaration.
  // The held workload now routes around it, and its senders report.
  auto rerouted = healthy_reports(manager_.flows());
  mute(rerouted, victim);
  const auto third = manager_.recover(rerouted);
  EXPECT_TRUE(third.silent_nodes.empty());
  EXPECT_TRUE(third.newly_dead.empty());
}

TEST_F(FaultRecoveryTest, HeardEpochResetsTheWatchdogCounter) {
  const auto set = workload(12, 11);
  ASSERT_TRUE(manager_.assign(set.flows));
  const node_id victim = some_expected_relay(set.flows);
  ASSERT_NE(victim, k_invalid_node);

  const auto healthy = healthy_reports(set.flows);
  auto muted = healthy;
  mute(muted, victim);

  manager_.recover(muted);    // silent: counter 1
  manager_.recover(healthy);  // heard: counter resets
  const auto after = manager_.recover(muted);  // counter 1 again
  EXPECT_TRUE(after.newly_dead.empty());
  EXPECT_TRUE(manager_.dead_nodes().empty());
  const auto declared = manager_.recover(muted);  // counter 2
  EXPECT_EQ(declared.newly_dead, std::vector<node_id>{victim});
}

TEST_F(FaultRecoveryTest, FlappingNodeIsRehabilitatedWhenReportsResume) {
  // Regression: a node declared dead whose reports later resumed was
  // never rehabilitated — the watchdog excluded dead nodes from the
  // expected-reporter set, so hearing from one changed nothing and the
  // manager routed around healthy hardware forever.
  const auto set = workload(12, 11);
  ASSERT_TRUE(manager_.assign(set.flows));
  const node_id victim = some_expected_relay(set.flows);
  ASSERT_NE(victim, k_invalid_node);

  // Every live node reports: the senders of the original workload and of
  // the held one, which a reroute around the victim changes.
  const auto reports = [&](bool victim_silent) {
    auto senders = set.flows;
    senders.insert(senders.end(), manager_.flows().begin(),
                   manager_.flows().end());
    auto out = healthy_reports(senders);
    if (victim_silent) mute(out, victim);
    return out;
  };
  const auto muted = [&] { return reports(true); };
  const auto healthy = [&] { return reports(false); };

  manager_.recover(muted());  // counter 1
  const auto declared = manager_.recover(muted());  // dead
  ASSERT_EQ(declared.newly_dead, std::vector<node_id>{victim});
  ASSERT_EQ(manager_.dead_nodes().count(victim), 1u);

  // The node comes back: its reports resume, and the very next epoch
  // removes it from the dead set.
  const auto revived = manager_.recover(healthy());
  EXPECT_EQ(revived.rehabilitated, std::vector<node_id>{victim});
  EXPECT_TRUE(revived.newly_dead.empty());
  EXPECT_TRUE(manager_.dead_nodes().empty());
  EXPECT_EQ(&manager_.live_comm(), &manager_.view().comm);

  // Routing flows back over it is the caller's decision: the original
  // workload, which names it as a sender, is handed over again.
  // Rehabilitation also reset the silence counter: declaring it dead
  // again takes the full watchdog_epochs of fresh silence.
  ASSERT_TRUE(manager_.assign(set.flows));
  const auto flap1 = manager_.recover(muted());
  EXPECT_TRUE(flap1.newly_dead.empty());
  const auto flap2 = manager_.recover(muted());
  EXPECT_EQ(flap2.newly_dead, std::vector<node_id>{victim});

  // A second resume rehabilitates again — flapping never wedges the
  // dead set.
  const auto revived2 = manager_.recover(healthy());
  EXPECT_EQ(revived2.rehabilitated, std::vector<node_id>{victim});
  EXPECT_TRUE(manager_.dead_nodes().empty());
}

TEST_F(FaultRecoveryTest, RevivalBeforeDeclarationIsNotRehabilitation) {
  // A node that resumes while merely *silent* (not yet declared) was
  // never dead: the counter resets but nothing is reported as
  // rehabilitated.
  const auto set = workload(12, 11);
  ASSERT_TRUE(manager_.assign(set.flows));
  const node_id victim = some_expected_relay(set.flows);
  ASSERT_NE(victim, k_invalid_node);

  const auto healthy = healthy_reports(set.flows);
  auto muted = healthy;
  mute(muted, victim);

  manager_.recover(muted);  // counter 1 of 2
  const auto resumed = manager_.recover(healthy);
  EXPECT_TRUE(resumed.rehabilitated.empty());
  EXPECT_TRUE(manager_.dead_nodes().empty());
}

TEST(FaultRecoveryLineage, SecondCrashReportsOriginalWorkloadIds) {
  // recover() names flows by their ids in the held workload it found.
  // After a first recovery dropped flow 0, the survivors are held
  // renumbered densely, so a second recovery reports those dense ids.
  // The caller names the flows of the original admission by composing
  // each epoch's surviving_input_ids into its own map.
  auto config = rc_config();
  config.watchdog_epochs = 1;  // one silent epoch declares death
  network_manager manager(topo::make_wustl(), config);

  flow::flow_set_params params;
  params.num_flows = 16;
  params.period_min_exp = 0;
  params.period_max_exp = 0;
  rng gen(11);
  const auto set = manager.generate_workload(params, gen);
  ASSERT_TRUE(manager.assign(set.flows));

  // Epoch 1: flow 0's source dies, so flow 0 (at least) is unroutable
  // and the survivors are renumbered with shifted dense ids. The held
  // workload was the original admission, so its ids are the original
  // ids.
  auto reports1 = healthy_reports(set.flows);
  mute(reports1, set.flows[0].source);
  const auto out1 = manager.recover(reports1);
  ASSERT_FALSE(out1.newly_dead.empty());
  ASSERT_TRUE(out1.rescheduled);
  const auto survivors1 = manager.flows();
  ASSERT_FALSE(survivors1.empty());
  ASSERT_LT(survivors1.size(), set.flows.size());
  const std::vector<flow_id> original_of = out1.surviving_input_ids;
  ASSERT_EQ(original_of.size(), survivors1.size());
  const std::set<flow_id> originals(original_of.begin(), original_of.end());
  ASSERT_EQ(originals.count(0), 0u) << "flow 0 should have been dropped";

  // Survivor 0's dense id differs from its original id (original id 0
  // is gone, so original_of[0] >= 1).
  ASSERT_NE(original_of[0], 0);
  const node_id victim2 = survivors1[0].source;

  // Epoch 2: that survivor's source dies. The outcome names it by its id
  // in this epoch's held workload, and the caller's map names the
  // original flow.
  auto reports2 = healthy_reports(survivors1);
  mute(reports2, victim2);
  const auto out2 = manager.recover(reports2);
  ASSERT_FALSE(out2.newly_dead.empty());
  ASSERT_TRUE(out2.rescheduled);
  EXPECT_NE(std::find(out2.unroutable_flows.begin(),
                      out2.unroutable_flows.end(), 0),
            out2.unroutable_flows.end())
      << "survivor 0 was not reported under its input id";

  // Every id the second epoch reports — rerouted, unroutable, shed, or
  // surviving — is an id of the workload it found, and maps to a flow of
  // the original admission that was still alive after epoch 1.
  const auto maps_to_original = [&](const std::vector<flow_id>& ids) {
    return std::all_of(ids.begin(), ids.end(), [&](flow_id id) {
      return id >= 0 && static_cast<std::size_t>(id) < original_of.size() &&
             originals.count(original_of[static_cast<std::size_t>(id)]) > 0;
    });
  };
  EXPECT_TRUE(maps_to_original(out2.rerouted_flows));
  EXPECT_TRUE(maps_to_original(out2.unroutable_flows));
  EXPECT_TRUE(maps_to_original(out2.shed_flows));
  EXPECT_TRUE(maps_to_original(out2.surviving_input_ids));
  // The surviving ids name the flows they claim to: same endpoints and
  // period as the input flow of that id.
  const auto& survivors2 = manager.flows();
  ASSERT_EQ(out2.surviving_input_ids.size(), survivors2.size());
  for (std::size_t i = 0; i < survivors2.size(); ++i) {
    const auto& input =
        survivors1[static_cast<std::size_t>(out2.surviving_input_ids[i])];
    EXPECT_EQ(survivors2[i].source, input.source);
    EXPECT_EQ(survivors2[i].destination, input.destination);
    EXPECT_EQ(survivors2[i].period, input.period);
  }
}

TEST(ManagerConfig, RejectsNonPositiveWatchdog) {
  auto config = rc_config();
  config.watchdog_epochs = 0;
  EXPECT_THROW(network_manager(topo::make_wustl(), config),
               std::invalid_argument);
}

// ----------------------------------------------------------- rerouting --

TEST_F(FaultRecoveryTest, RemoveNodesIsolatesWithoutRenumbering) {
  const auto& comm = manager_.view().comm;
  ASSERT_GT(comm.num_nodes(), 2);
  const node_id removed = 1;
  const auto pruned = graph::remove_nodes(comm, {removed});
  EXPECT_EQ(pruned.num_nodes(), comm.num_nodes());
  EXPECT_TRUE(pruned.neighbors(removed).empty());
  // Edges not touching the removed node survive.
  int kept = 0;
  for (node_id u = 0; u < comm.num_nodes(); ++u) {
    if (u == removed) continue;
    for (node_id v : comm.neighbors(u))
      if (v != removed && pruned.has_edge(u, v)) ++kept;
  }
  EXPECT_GT(kept, 0);
  EXPECT_EQ(pruned.num_edges(),
            comm.num_edges() - comm.neighbors(removed).size());
}

TEST_F(FaultRecoveryTest, RerouteAvoidsExcludedNodes) {
  const auto set = workload(12, 11);
  // Find a flow with an interior uplink relay to knock out.
  for (const auto& f : set.flows) {
    if (f.uplink_links < 2) continue;
    const node_id excluded_node = f.route[0].receiver;
    const std::set<node_id> excluded{excluded_node};
    const auto pruned =
        graph::remove_nodes(manager_.view().comm, excluded);
    const auto rerouted = flow::reroute_flow(pruned, f, excluded);
    if (!rerouted) continue;  // that relay was a cut vertex; try another
    for (const auto& l : rerouted->links) {
      EXPECT_NE(l.sender, excluded_node);
      EXPECT_NE(l.receiver, excluded_node);
    }
    EXPECT_EQ(rerouted->links.front().sender, f.source);
    EXPECT_EQ(rerouted->links.back().receiver, f.destination);
    flow::flow repaired = f;
    repaired.route = rerouted->links;
    repaired.uplink_links = rerouted->uplink_links;
    EXPECT_NO_THROW(flow::validate_flow(repaired));
    return;
  }
  FAIL() << "workload had no reroutable multi-hop flow";
}

TEST_F(FaultRecoveryTest, RerouteFailsWhenAnEndpointDied) {
  const auto set = workload(12, 11);
  const auto& f = set.flows.front();
  const std::set<node_id> dead_source{f.source};
  const auto pruned =
      graph::remove_nodes(manager_.view().comm, dead_source);
  EXPECT_FALSE(flow::reroute_flow(pruned, f, dead_source).has_value());
  const std::set<node_id> dead_dest{f.destination};
  EXPECT_FALSE(
      flow::reroute_flow(
          graph::remove_nodes(manager_.view().comm, dead_dest), f,
          dead_dest)
          .has_value());
}

TEST(RerouteCorners, UnreachableDestinationAfterPruningReturnsNullopt) {
  // Both endpoints survive but the only relay between them died: the
  // pruned graph is partitioned and the reroute must fail cleanly.
  graph::graph line(3);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 2;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{0, 1}, flow::link{1, 2}};
  f.uplink_links = 2;
  const std::set<node_id> excluded{1};
  const auto pruned = graph::remove_nodes(line, excluded);
  EXPECT_FALSE(flow::reroute_flow(pruned, f, excluded).has_value());
}

TEST(RerouteCorners, CentralizedFlowKeepsItsAccessPointsAcrossRecoveries) {
  // Topology: 0-1-2(AP)-3-4 with detour relays 5 (uplink) and 6
  // (downlink), plus a "wrong" AP 7 adjacent to source and destination.
  // Repeated recoveries must re-route through the flow's own AP (2),
  // never migrate to AP 7.
  graph::graph g(8);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(0, 5);
  g.add_edge(5, 2);
  g.add_edge(2, 6);
  g.add_edge(6, 4);
  g.add_edge(0, 7);
  g.add_edge(7, 4);

  flow::flow f;
  f.id = 0;
  f.type = flow::traffic_type::centralized;
  f.source = 0;
  f.destination = 4;
  f.period = 20;
  f.deadline = 20;
  f.route = {flow::link{0, 1}, flow::link{1, 2}, flow::link{2, 3},
             flow::link{3, 4}};
  f.uplink_links = 2;

  // First recovery: uplink relay 1 dies; the detour through 5 keeps the
  // uplink terminating at AP 2.
  std::set<node_id> excluded{1};
  auto rerouted =
      flow::reroute_flow(graph::remove_nodes(g, excluded), f, excluded);
  ASSERT_TRUE(rerouted.has_value());
  ASSERT_GE(rerouted->uplink_links, 1);
  EXPECT_EQ(rerouted
                ->links[static_cast<std::size_t>(rerouted->uplink_links - 1)]
                .receiver,
            2);
  f.route = rerouted->links;
  f.uplink_links = rerouted->uplink_links;

  // Second recovery on the repaired flow: downlink relay 3 dies too; the
  // detour through 6 keeps the downlink starting at AP 2.
  excluded = {1, 3};
  rerouted =
      flow::reroute_flow(graph::remove_nodes(g, excluded), f, excluded);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_EQ(rerouted
                ->links[static_cast<std::size_t>(rerouted->uplink_links - 1)]
                .receiver,
            2);
  EXPECT_EQ(rerouted->links[static_cast<std::size_t>(rerouted->uplink_links)]
                .sender,
            2);
  for (const auto& l : rerouted->links) {
    EXPECT_NE(l.sender, 7);
    EXPECT_NE(l.receiver, 7);
  }

  // When the AP itself dies, the infrastructure is gone: no reroute.
  excluded = {2};
  EXPECT_FALSE(
      flow::reroute_flow(graph::remove_nodes(g, excluded), f, excluded)
          .has_value());
}

TEST(RerouteCorners, SingleNodeResidualGraph) {
  // Remove everything except one node: the residual graph keeps the id
  // space (no renumbering), has no edges, and routes nothing.
  graph::graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::set<node_id> removed{0, 1, 2};
  const auto residual = graph::remove_nodes(g, removed);
  EXPECT_EQ(residual.num_nodes(), 4);
  EXPECT_EQ(residual.num_edges(), 0u);
  for (node_id u = 0; u < 4; ++u)
    EXPECT_TRUE(residual.neighbors(u).empty());

  flow::flow f;
  f.id = 0;
  f.source = 3;
  f.destination = 0;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{3, 2}, flow::link{2, 1}, flow::link{1, 0}};
  f.uplink_links = 3;
  EXPECT_FALSE(flow::reroute_flow(residual, f, removed).has_value());

  // Removing the empty set is the identity.
  const auto same = graph::remove_nodes(g, {});
  EXPECT_EQ(same.num_edges(), g.num_edges());
  EXPECT_TRUE(same.has_edge(0, 1));
}

// -------------------------------------------- the acceptance scenario --

TEST(FaultRecoveryEndToEnd, CrashedRelayIsDetectedAndRoutedAround) {
  auto config = rc_config();
  config.watchdog_epochs = 2;
  network_manager manager(topo::make_wustl(), config);

  flow::flow_set_params params;
  params.num_flows = 30;
  params.period_min_exp = 0;
  params.period_max_exp = 0;
  rng gen(8);
  const auto set = manager.generate_workload(params, gen);
  ASSERT_TRUE(manager.assign(set.flows));
  const auto& flows = manager.flows();

  const node_id victim = pick_relay(flows);
  ASSERT_NE(victim, k_invalid_node);

  const int runs_per_epoch = 18;
  auto make_sim_config = [&] {
    sim::sim_config c;
    c.runs = runs_per_epoch;
    c.seed = 5;
    // A gentle, static RF world: delivery differences measure the
    // repair, not channel luck.
    c.calibration_drift_sigma_db = 0.0;
    c.maintained_drift_sigma_db = 0.0;
    c.intermittent_fraction = 0.0;
    c.temporal_fading_sigma_db = 0.0;
    return c;
  };

  // Pre-fault baseline delivery per flow id.
  const auto& view = manager.view();
  const auto baseline =
      sim::run_simulation(view.topology, manager.schedule(), flows,
                          view.channels, make_sim_config());

  // The victim crashes permanently at the start of epoch 1.
  sim::fault_plan plan;
  plan.crashes.push_back(sim::node_crash{victim, runs_per_epoch, -1});

  int detected_epoch = -1;
  std::vector<flow_id> survivors_original_ids;
  for (int epoch = 0; epoch < 4; ++epoch) {
    auto sim_config = make_sim_config();
    sim_config.faults = sim::slice_fault_plan(plan, epoch * runs_per_epoch,
                                              runs_per_epoch);
    const auto observed = sim::run_simulation(
        view.topology, manager.schedule(), flows, view.channels, sim_config);
    const std::size_t before = flows.size();
    const auto outcome = manager.recover(observed.links);
    if (!outcome.newly_dead.empty()) {
      ASSERT_EQ(outcome.newly_dead, std::vector<node_id>{victim});
      EXPECT_LE(outcome.detection_latency_epochs, config.watchdog_epochs);
      detected_epoch = epoch;
      ASSERT_TRUE(outcome.rescheduled);
      ASSERT_TRUE(manager.schedulable());
      // Some flows were rerouted; at most a few could not be saved.
      EXPECT_FALSE(outcome.rerouted_flows.empty());
      EXPECT_GE(flows.size(), before / 2);
      survivors_original_ids = outcome.surviving_input_ids;
      // No surviving route touches the dead node.
      for (const auto& f : flows)
        for (const auto& l : f.route) {
          EXPECT_NE(l.sender, victim);
          EXPECT_NE(l.receiver, victim);
        }
      break;
    }
  }
  // Detection: the crash starts at epoch 1, so the watchdog must declare
  // the node dead within watchdog_epochs epochs of the onset.
  ASSERT_NE(detected_epoch, -1) << "watchdog never declared the crash";
  EXPECT_LE(detected_epoch, 1 + config.watchdog_epochs - 1);

  // Recovery: re-run the post-repair era (the victim is still crashed)
  // and compare each survivor to its own pre-fault baseline.
  auto post_config = make_sim_config();
  post_config.faults.crashes.push_back(sim::node_crash{victim, 0, -1});
  const auto post = sim::run_simulation(
      view.topology, manager.schedule(), flows, view.channels, post_config);
  ASSERT_EQ(post.flow_pdr.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto original =
        static_cast<std::size_t>(survivors_original_ids[i]);
    EXPECT_GE(post.flow_pdr[i], baseline.flow_pdr[original] - 0.02)
        << "survivor " << i << " (original flow " << original
        << ") fell more than 2% below its pre-fault delivery";
  }
}

}  // namespace
}  // namespace wsan::manager
