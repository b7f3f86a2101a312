#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "topo/testbeds.h"
#include "manager/network_manager.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

namespace wsan::manager {
namespace {

manager_config rc_config(int channels = 4) {
  manager_config config;
  config.num_channels = channels;
  config.scheduler = core::make_config(core::algorithm::rc, channels);
  return config;
}

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : manager_(topo::make_wustl(), rc_config()) {}

  flow::flow_set workload(int flows, std::uint64_t seed) {
    flow::flow_set_params params;
    params.num_flows = flows;
    params.period_min_exp = 0;
    params.period_max_exp = 1;
    rng gen(seed);
    return manager_.generate_workload(params, gen);
  }

  network_manager manager_;
};

TEST_F(ManagerTest, ConstructionDerivesTheGraphs) {
  const auto& view = manager_.view();
  EXPECT_EQ(view.channels.size(), 4u);
  EXPECT_EQ(view.channels.front(), 11);
  EXPECT_TRUE(graph::is_connected(view.comm));
  EXPECT_GT(view.reuse.num_edges(), view.comm.num_edges());
  EXPECT_GE(view.reuse_hops.diameter(), 2);
  EXPECT_TRUE(manager_.isolated_links().empty());
}

TEST_F(ManagerTest, AdmitsAndValidatesWorkloads) {
  const auto set = workload(20, 11);
  const auto result = manager_.admit(set.flows);
  ASSERT_TRUE(result.schedulable);
  tsch::validation_options opts;
  opts.min_reuse_hops = 2;
  EXPECT_TRUE(tsch::validate_schedule(result.sched, set.flows,
                                      manager_.view().reuse_hops, opts)
                  .ok);
}

TEST_F(ManagerTest, MaintenanceWithHealthyReportsDoesNothing) {
  const auto set = workload(20, 13);
  const auto admitted = manager_.admit(set.flows);
  ASSERT_TRUE(admitted.schedulable);

  sim::sim_config sim_config;
  sim_config.runs = 18;
  sim_config.seed = 1;
  // A gentle environment: no drift surprises, no external interference.
  sim_config.calibration_drift_sigma_db = 0.0;
  sim_config.maintained_drift_sigma_db = 0.0;
  sim_config.intermittent_fraction = 0.0;
  sim_config.temporal_fading_sigma_db = 0.0;
  const auto observed = sim::run_simulation(
      manager_.view().topology, admitted.sched, set.flows,
      manager_.view().channels, sim_config);

  const auto outcome = manager_.maintain(set.flows, observed.links);
  EXPECT_FALSE(outcome.rescheduled);
  EXPECT_TRUE(outcome.newly_isolated.empty());
  EXPECT_TRUE(manager_.isolated_links().empty());
}

TEST_F(ManagerTest, MaintenanceIsolatesAndRepairsDegradedLinks) {
  // Fabricate health reports for one link that is healthy contention-
  // free but terrible under reuse — the classifier must isolate it and
  // the manager must hand back a repaired schedule.
  const auto set = workload(20, 17);
  const auto admitted = manager_.admit(set.flows);
  ASSERT_TRUE(admitted.schedulable);

  // Pick a real link from the schedule to flag.
  const auto& placement = admitted.sched.placements().front();
  const sim::link_key victim{placement.tx.sender, placement.tx.receiver};

  std::map<sim::link_key, sim::link_observations> reports;
  auto& obs = reports[victim];
  rng gen(23);
  for (int run = 0; run < 18; ++run) {
    obs.reuse_samples.emplace_back(run, 0.4 + 0.02 * gen.uniform01());
    obs.cf_samples.emplace_back(run, 0.97 + 0.02 * gen.uniform01());
  }
  obs.reuse_attempts = 18 * 5;
  obs.reuse_successes = static_cast<long long>(18 * 5 * 0.4);
  obs.cf_attempts = 18 * 5;
  obs.cf_successes = static_cast<long long>(18 * 5 * 0.97);

  const auto outcome = manager_.maintain(set.flows, reports);
  ASSERT_EQ(outcome.newly_isolated.size(), 1u);
  EXPECT_TRUE(outcome.newly_isolated.count(
                  {victim.sender, victim.receiver}) > 0);
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_TRUE(outcome.repaired.has_value());
  if (outcome.repaired->schedulable) {
    // The repaired schedule gives the victim exclusive cells.
    const auto& sched = outcome.repaired->sched;
    for (slot_t s = 0; s < sched.num_slots(); ++s) {
      for (offset_t c = 0; c < sched.num_offsets(); ++c) {
        const auto& cell = sched.cell(s, c);
        if (cell.size() < 2) continue;
        for (const auto& tx : cell) {
          EXPECT_FALSE(tx.sender == victim.sender &&
                       tx.receiver == victim.receiver);
        }
      }
    }
  }
  // Isolation persists: a fresh admission honors it.
  EXPECT_EQ(manager_.isolated_links().size(), 1u);
  manager_.reset_isolations();
  EXPECT_TRUE(manager_.isolated_links().empty());
}

TEST_F(ManagerTest, RepeatedMaintenanceDoesNotReisolate) {
  const auto set = workload(15, 19);
  const auto admitted = manager_.admit(set.flows);
  ASSERT_TRUE(admitted.schedulable);
  const auto& placement = admitted.sched.placements().front();
  const sim::link_key victim{placement.tx.sender, placement.tx.receiver};

  std::map<sim::link_key, sim::link_observations> reports;
  auto& obs = reports[victim];
  for (int run = 0; run < 18; ++run) {
    obs.reuse_samples.emplace_back(run, 0.3);
    obs.cf_samples.emplace_back(run, 0.95 + 0.001 * run);
  }
  obs.reuse_attempts = 100;
  obs.reuse_successes = 30;
  obs.cf_attempts = 100;
  obs.cf_successes = 95;

  const auto first = manager_.maintain(set.flows, reports);
  EXPECT_EQ(first.newly_isolated.size(), 1u);
  const auto second = manager_.maintain(set.flows, reports);
  EXPECT_TRUE(second.newly_isolated.empty());
  EXPECT_FALSE(second.rescheduled);
}

TEST_F(ManagerTest, BlacklistingRebuildsTheChannelPlan) {
  const auto original_channels = manager_.view().channels;
  ASSERT_EQ(original_channels, phy::channels(4));  // 11..14

  // A WiFi AP on channel 1 jams 802.15.4 channels 11-14; blacklist them.
  manager_.blacklist_channels({11, 12, 13, 14});
  const auto& view = manager_.view();
  const std::vector<channel_t> remaining{15, 16, 17, 18};
  EXPECT_EQ(view.channels, remaining);
  EXPECT_TRUE(graph::is_connected(view.comm));

  // Both graphs and the hop matrix are rebuilt on the remaining
  // channels, not only the channel list: edge for edge and pair for
  // pair, they equal the primitives run on channels 15-18.
  const auto topology = topo::make_wustl();
  const auto expect_same_edges = [](const graph::graph& built,
                                    const graph::graph& reference) {
    ASSERT_EQ(built.num_nodes(), reference.num_nodes());
    EXPECT_EQ(built.num_edges(), reference.num_edges());
    for (node_id u = 0; u < reference.num_nodes(); ++u)
      EXPECT_EQ(built.neighbors(u), reference.neighbors(u)) << "node " << u;
  };
  expect_same_edges(view.comm,
                    graph::build_communication_graph(topology, remaining));
  const auto reuse = graph::build_channel_reuse_graph(topology, remaining);
  expect_same_edges(view.reuse, reuse);
  const graph::hop_matrix hops(reuse);
  ASSERT_EQ(view.reuse_hops.num_nodes(), hops.num_nodes());
  for (node_id u = 0; u < hops.num_nodes(); ++u)
    for (node_id v = 0; v < hops.num_nodes(); ++v)
      ASSERT_EQ(view.reuse_hops.hops(u, v), hops.hops(u, v))
          << u << " -> " << v;

  // Workloads admit on the new plan.
  const auto set = workload(10, 29);
  EXPECT_TRUE(manager_.admit(set.flows).schedulable);

  // Too large a blacklist is rejected.
  std::vector<channel_t> everything;
  for (channel_t ch = 11; ch <= 24; ++ch) everything.push_back(ch);
  EXPECT_THROW(manager_.blacklist_channels(everything),
               std::invalid_argument);
}

TEST(ManagerIsolation, IsolationHasOneOwnerAcrossAdmitAndRecover) {
  // Regression: admit() and recover() used to merge isolated_ into
  // separate config copies while the stored scheduler config could
  // carry its own isolated_links — three places to diverge. The
  // manager now drains config-seeded links into its own set at
  // construction (single owner) and every scheduling path uses the one
  // effective config. Run both paths in one epoch and check each
  // schedule honors the seeded isolation.
  // RA reuses aggressively, so a reusing cell to probe for is
  // guaranteed; the ownership semantics under test are the same for
  // every algorithm.
  const auto ra_config = [] {
    manager_config config;
    config.num_channels = 4;
    config.scheduler = core::make_config(core::algorithm::ra, 4);
    return config;
  };
  const auto probe = [&] {
    // Find a link that reuses a cell so isolation is observable.
    network_manager plain(topo::make_wustl(), ra_config());
    flow::flow_set_params params;
    params.num_flows = 20;
    params.period_min_exp = 0;
    params.period_max_exp = 1;
    rng gen(11);
    const auto set = plain.generate_workload(params, gen);
    const auto result = plain.admit(set.flows);
    EXPECT_TRUE(result.schedulable);
    for (slot_t s = 0; s < result.sched.num_slots(); ++s)
      for (offset_t c = 0; c < result.sched.num_offsets(); ++c) {
        const auto& cell = result.sched.cell(s, c);
        if (cell.size() >= 2)
          return std::make_pair(
              std::make_pair(cell.front().sender, cell.front().receiver),
              set);
      }
    ADD_FAILURE() << "no reusing cell in the probe schedule";
    return std::make_pair(std::make_pair(node_id{0}, node_id{1}), set);
  }();
  const auto link = probe.first;
  const auto& set = probe.second;

  auto config = ra_config();
  config.watchdog_epochs = 1;
  config.scheduler.isolated_links = {link};
  network_manager manager(topo::make_wustl(), config);

  // Ownership moved out of the config copy into the manager.
  ASSERT_EQ(manager.isolated_links().count(link), 1u);

  const auto no_reuse_of = [&](const tsch::schedule& sched) {
    for (slot_t s = 0; s < sched.num_slots(); ++s)
      for (offset_t c = 0; c < sched.num_offsets(); ++c) {
        const auto& cell = sched.cell(s, c);
        if (cell.size() < 2) continue;
        for (const auto& tx : cell)
          if (tx.sender == link.first && tx.receiver == link.second)
            return false;
      }
    return true;
  };

  // Path 1: admission applies the seeded isolation.
  const auto admitted = manager.admit(set.flows);
  ASSERT_TRUE(admitted.schedulable);
  EXPECT_TRUE(no_reuse_of(admitted.sched));

  // Path 2, same epoch: a crash-triggered recovery reschedule applies
  // the very same set.
  std::map<sim::link_key, sim::link_observations> reports;
  for (const auto& f : set.flows)
    for (const auto& l : f.route) {
      auto& obs = reports[sim::link_key{l.sender, l.receiver}];
      if (obs.cf_samples.empty()) obs.cf_samples.emplace_back(0, 1.0);
      obs.cf_attempts += 10;
      obs.cf_successes += 10;
    }
  node_id victim = k_invalid_node;
  for (const auto& f : set.flows)
    if (f.route.size() >= 2) {
      victim = f.route[1].sender;
      break;
    }
  ASSERT_NE(victim, k_invalid_node);
  std::erase_if(reports,
                [&](const auto& kv) { return kv.first.sender == victim; });
  const auto outcome = manager.recover(set.flows, reports);
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_TRUE(outcome.repaired->schedulable);
  EXPECT_TRUE(no_reuse_of(outcome.repaired->sched));
  // Still exactly one owner; nothing drifted back into a config copy.
  EXPECT_EQ(manager.isolated_links().count(link), 1u);
}

// --------------------------------------------------------- shed-to-fit --

/// Ten nodes in a line, neighbours linked perfectly on every channel and
/// nobody else in range: the channel-reuse graph is the path 0-1-...-9,
/// so nodes i and j are |i - j| reuse hops apart. One channel, so
/// admission hinges on reuse.
network_manager path_manager(int watchdog_epochs = 2) {
  topo::topology line("line");
  for (int i = 0; i < 10; ++i) line.add_node({10.0 * i, 0.0, 0});
  for (const channel_t ch : phy::channels(1))
    for (node_id i = 0; i + 1 < 10; ++i) {
      line.set_prr(i, i + 1, ch, 1.0);
      line.set_prr(i + 1, i, ch, 1.0);
    }
  auto config = rc_config(1);
  config.watchdog_epochs = watchdog_epochs;
  return network_manager(std::move(line), config);
}

flow::flow make_flow(flow_id id, std::vector<flow::link> route,
                     slot_t period, slot_t deadline) {
  flow::flow f;
  f.id = id;
  f.source = route.front().sender;
  f.destination = route.back().receiver;
  f.period = period;
  f.deadline = deadline;
  f.uplink_links = static_cast<int>(route.size());
  f.route = std::move(route);
  return f;
}

std::vector<flow_id> ids_of(const std::vector<flow::flow>& flows) {
  std::vector<flow_id> ids;
  for (const auto& f : flows) ids.push_back(f.id);
  return ids;
}

TEST(Shedding, SchedulableWorkloadShedsNothing) {
  const auto manager = path_manager();
  std::vector<flow::flow> flows{make_flow(0, {{0, 1}}, 20, 20),
                                make_flow(1, {{8, 9}}, 20, 20)};
  EXPECT_TRUE(manager.admit_shedding(flows).schedulable);
  EXPECT_EQ(ids_of(flows), (std::vector<flow_id>{0, 1}));
}

TEST(Shedding, DropsStrictlyFromTheBack) {
  // f1 conflicts with f0 (shared node, same 2-slot deadline window on one
  // channel) and can never be scheduled; f2 is harmless. Shedding is
  // priority-ordered, not minimal: it must drop the innocent f2 first,
  // then f1, keeping the strict guarantee that a shed flow is never
  // higher-priority than a kept one.
  const auto manager = path_manager();
  std::vector<flow::flow> flows{make_flow(0, {{0, 1}}, 10, 2),
                                make_flow(1, {{1, 2}}, 10, 2),
                                make_flow(2, {{8, 9}}, 10, 2)};
  const auto result = manager.admit_shedding(flows);
  EXPECT_TRUE(result.schedulable);
  EXPECT_EQ(ids_of(flows), (std::vector<flow_id>{0}));
  EXPECT_EQ(result.sched.placements(),
            manager.admit(flows).sched.placements());
}

TEST(Shedding, EmptyRemainderIsTriviallySchedulable) {
  // A flow that cannot fit even alone (two hops, two attempts each,
  // 2-slot deadline) is shed; the empty remainder counts as schedulable.
  const auto manager = path_manager();
  std::vector<flow::flow> flows{make_flow(0, {{0, 1}, {1, 2}}, 10, 2)};
  const auto result = manager.admit_shedding(flows);
  EXPECT_TRUE(result.schedulable);
  EXPECT_TRUE(flows.empty());
  EXPECT_EQ(result.sched.num_transmissions(), 0u);
}

TEST(Shedding, UnsortedInputStillShedsTheLowestPriorityFlow) {
  // The back of the workload is its lowest-priority flow only when ids
  // are dense priority ranks in order. Fed the flows of
  // DropsStrictlyFromTheBack in reverse, shedding must not drop f0,
  // the flow that happened to arrive last: the input is refused before
  // anything is dropped, and in priority order f2 then f1 go.
  const auto manager = path_manager();
  const auto f0 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f1 = make_flow(1, {{1, 2}}, 10, 2);
  const auto f2 = make_flow(2, {{8, 9}}, 10, 2);
  std::vector<flow::flow> flows{f2, f1, f0};
  EXPECT_THROW(manager.admit_shedding(flows), std::invalid_argument);
  EXPECT_EQ(ids_of(flows), (std::vector<flow_id>{2, 1, 0}));

  flows = {f0, f1, f2};
  EXPECT_TRUE(manager.admit_shedding(flows).schedulable);
  EXPECT_EQ(ids_of(flows), (std::vector<flow_id>{0}));
}

TEST(Shedding, SparseIdsAreReportedAsGivenAndKeptFlowsRenumbered) {
  // Ids need not be dense where they are handles (e.g. from before an
  // earlier recovery). admit_shedding sheds by id rank, so it refuses
  // them before anything is dropped. recover() takes them: node 5 dies,
  // flow 5 is unroutable, and the survivors 3, 7 (conflicts with 3) and
  // 12 (harmless) are renumbered 0, 1, 2 for the scheduler. Shedding
  // drops 12 then 7, reported as given; the kept flow comes back as 0
  // with 3 as its input id.
  auto manager = path_manager(/*watchdog_epochs=*/1);
  const std::vector<flow::flow> flows{
      make_flow(3, {{0, 1}}, 10, 2), make_flow(5, {{5, 6}}, 10, 10),
      make_flow(7, {{1, 2}}, 10, 2), make_flow(12, {{8, 9}}, 10, 2)};
  std::vector<flow::flow> routable{flows[0], flows[2], flows[3]};
  EXPECT_THROW(manager.admit_shedding(routable), std::invalid_argument);
  EXPECT_EQ(ids_of(routable), (std::vector<flow_id>{3, 7, 12}));

  std::map<sim::link_key, sim::link_observations> reports;
  for (const auto& f : flows)
    for (const auto& l : f.route)
      if (l.sender != 5)
        reports[sim::link_key{l.sender, l.receiver}].cf_samples.emplace_back(
            0, 1.0);
  const auto outcome = manager.recover(flows, reports);
  EXPECT_EQ(outcome.newly_dead, std::vector<node_id>{5});
  EXPECT_EQ(outcome.unroutable_flows, std::vector<flow_id>{5});
  EXPECT_EQ(outcome.shed_flows, (std::vector<flow_id>{12, 7}));
  EXPECT_EQ(outcome.surviving_input_ids, std::vector<flow_id>{3});
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_EQ(outcome.surviving_flows.size(), 1u);
  EXPECT_EQ(outcome.surviving_flows[0].id, 0);  // dense for the scheduler
  EXPECT_EQ(outcome.surviving_flows[0].route, flows[0].route);
  ASSERT_TRUE(outcome.repaired->schedulable);
}

TEST(Shedding, DuplicateIdsAreRejected) {
  // Two flows sharing rank 1 leave no single lowest-priority flow: the
  // workload does not fit, but it is refused before anything is dropped.
  const auto manager = path_manager();
  std::vector<flow::flow> flows{make_flow(0, {{0, 1}}, 10, 2),
                                make_flow(1, {{1, 2}}, 10, 2),
                                make_flow(1, {{8, 9}}, 10, 2)};
  EXPECT_THROW(manager.admit_shedding(flows), std::invalid_argument);
  EXPECT_EQ(ids_of(flows), (std::vector<flow_id>{0, 1, 1}));
}

TEST(Shedding, RecoverReportsShedFlowsByInputId) {
  // Node 5 dies, so flow 1 (5 -> 6) is unroutable; the survivors 0, 2
  // and 3 are renumbered 0, 1, 2 and do not fit (2 conflicts with 0, as
  // in DropsStrictlyFromTheBack). Shedding drops survivors 2 and 1 —
  // flows 3 and 2 of the input, which is how recover() must name them.
  auto manager = path_manager(/*watchdog_epochs=*/1);
  const std::vector<flow::flow> flows{
      make_flow(0, {{0, 1}}, 10, 2), make_flow(1, {{5, 6}}, 10, 10),
      make_flow(2, {{1, 2}}, 10, 2), make_flow(3, {{8, 9}}, 10, 2)};
  std::map<sim::link_key, sim::link_observations> reports;
  for (const auto& f : flows)
    for (const auto& l : f.route)
      if (l.sender != 5)
        reports[sim::link_key{l.sender, l.receiver}].cf_samples.emplace_back(
            0, 1.0);

  const auto outcome = manager.recover(flows, reports);
  EXPECT_EQ(outcome.newly_dead, std::vector<node_id>{5});
  EXPECT_EQ(outcome.unroutable_flows, std::vector<flow_id>{1});
  EXPECT_EQ(outcome.shed_flows, (std::vector<flow_id>{3, 2}));
  EXPECT_EQ(outcome.surviving_input_ids, std::vector<flow_id>{0});
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_EQ(outcome.surviving_flows.size(), 1u);
  EXPECT_EQ(outcome.surviving_flows[0].id, 0);
  EXPECT_EQ(outcome.surviving_flows[0].route, flows[0].route);
  ASSERT_TRUE(outcome.repaired->schedulable);
  EXPECT_EQ(outcome.repaired->sched.placements(),
            core::schedule_flows(outcome.surviving_flows,
                                 manager.view().reuse_hops,
                                 core::make_config(core::algorithm::rc, 1))
                .sched.placements());
}

TEST(ManagerConfig, MannWhitneyPolicyWorksEndToEnd) {
  auto config = rc_config();
  config.detection.test = detect::detection_test::mann_whitney;
  network_manager manager(topo::make_wustl(), config);
  flow::flow_set_params params;
  params.num_flows = 10;
  rng gen(3);
  const auto set = manager.generate_workload(params, gen);
  EXPECT_TRUE(manager.admit(set.flows).schedulable);
}

}  // namespace
}  // namespace wsan::manager
