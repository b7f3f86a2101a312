#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
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
  ASSERT_TRUE(manager_.assign(set.flows));

  sim::sim_config sim_config;
  sim_config.runs = 18;
  sim_config.seed = 1;
  // A gentle environment: no drift surprises, no external interference.
  sim_config.calibration_drift_sigma_db = 0.0;
  sim_config.maintained_drift_sigma_db = 0.0;
  sim_config.intermittent_fraction = 0.0;
  sim_config.temporal_fading_sigma_db = 0.0;
  const auto observed = sim::run_simulation(
      manager_.view().topology, manager_.schedule(), manager_.flows(),
      manager_.view().channels, sim_config);

  const auto outcome = manager_.maintain(observed.links);
  EXPECT_FALSE(outcome.rescheduled);
  EXPECT_TRUE(outcome.newly_isolated.empty());
  EXPECT_TRUE(manager_.isolated_links().empty());
}

TEST_F(ManagerTest, MaintenanceIsolatesAndRepairsDegradedLinks) {
  // Fabricate health reports for one link that is healthy contention-
  // free but terrible under reuse — the classifier must isolate it and
  // the manager must hand back a repaired schedule.
  const auto set = workload(20, 17);
  ASSERT_TRUE(manager_.assign(set.flows));

  // Pick a real link from the schedule to flag.
  const auto placement = manager_.schedule().placements().front();
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

  const auto outcome = manager_.maintain(reports);
  ASSERT_EQ(outcome.newly_isolated.size(), 1u);
  EXPECT_TRUE(outcome.newly_isolated.count(
                  {victim.sender, victim.receiver}) > 0);
  ASSERT_TRUE(outcome.rescheduled);
  // The held workload was rebuilt under the isolation: it is what a
  // fresh admission of the same flows gives.
  EXPECT_EQ(manager_.schedulable(), manager_.admit(set.flows).schedulable);
  EXPECT_EQ(manager_.schedule().placements(),
            manager_.admit(set.flows).sched.placements());
  if (manager_.schedulable()) {
    // The repaired schedule gives the victim exclusive cells.
    const auto& sched = manager_.schedule();
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
}

TEST_F(ManagerTest, RepeatedMaintenanceDoesNotReisolate) {
  const auto set = workload(15, 19);
  ASSERT_TRUE(manager_.assign(set.flows));
  const auto placement = manager_.schedule().placements().front();
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

  const auto first = manager_.maintain(reports);
  EXPECT_EQ(first.newly_isolated.size(), 1u);
  const auto second = manager_.maintain(reports);
  EXPECT_TRUE(second.newly_isolated.empty());
  EXPECT_FALSE(second.rescheduled);
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

  // Path 1: admission applies the seeded isolation, in the reference
  // and in the held workload.
  const auto admitted = manager.admit(set.flows);
  ASSERT_TRUE(admitted.schedulable);
  EXPECT_TRUE(no_reuse_of(admitted.sched));
  ASSERT_TRUE(manager.assign(set.flows));
  EXPECT_EQ(manager.schedule().placements(), admitted.sched.placements());

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
  const auto outcome = manager.recover(reports);
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_TRUE(manager.schedulable());
  EXPECT_TRUE(no_reuse_of(manager.schedule()));
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

/// The held workload must equal the reference admission of its flows,
/// placement for placement.
void expect_held_is_admit(const network_manager& m,
                          const std::string& context) {
  if (m.flows().empty()) {
    EXPECT_TRUE(m.schedulable()) << context;
    EXPECT_EQ(m.schedule().num_transmissions(), 0u) << context;
    return;
  }
  const auto reference = m.admit(m.flows());
  EXPECT_EQ(m.schedulable(), reference.schedulable) << context;
  EXPECT_EQ(m.schedule().num_slots(), reference.sched.num_slots()) << context;
  EXPECT_EQ(m.schedule().placements(), reference.sched.placements())
      << context << ": the held workload diverged from admit";
}

/// Shed-to-fit's reference: drop the last flow until admit accepts the
/// rest.
std::size_t fitting_prefix(const network_manager& m,
                           std::vector<flow::flow> flows) {
  while (!flows.empty() && !m.admit(flows).schedulable) flows.pop_back();
  return flows.size();
}

/// Healthy contention-free reports from every sender of `flows` except
/// `silent`.
std::map<sim::link_key, sim::link_observations> healthy_except(
    const std::vector<flow::flow>& flows, node_id silent) {
  std::map<sim::link_key, sim::link_observations> reports;
  for (const auto& f : flows)
    for (const auto& l : f.route)
      if (l.sender != silent) {
        auto& obs = reports[sim::link_key{l.sender, l.receiver}];
        obs.cf_samples.emplace_back(0, 1.0);
        obs.cf_attempts += 10;
        obs.cf_successes += 10;
      }
  return reports;
}


TEST(Shedding, SchedulableWorkloadShedsNothing) {
  auto manager = path_manager();
  ASSERT_TRUE(manager.assign({make_flow(0, {{0, 1}}, 20, 20),
                              make_flow(1, {{8, 9}}, 20, 20)}));
  EXPECT_EQ(manager.shed_to_fit(), 0u);
  EXPECT_EQ(ids_of(manager.flows()), (std::vector<flow_id>{0, 1}));
}

TEST(Shedding, DropsStrictlyFromTheBack) {
  // f1 conflicts with f0 (shared node, same 2-slot deadline window on one
  // channel) and can never be scheduled; f2 is harmless. Shedding is
  // priority-ordered, not minimal: it must drop the innocent f2 first,
  // then f1, keeping the strict guarantee that a shed flow is never
  // higher-priority than a kept one.
  auto manager = path_manager();
  const std::vector<flow::flow> flows{make_flow(0, {{0, 1}}, 10, 2),
                                      make_flow(1, {{1, 2}}, 10, 2),
                                      make_flow(2, {{8, 9}}, 10, 2)};
  EXPECT_FALSE(manager.assign(flows));
  EXPECT_EQ(manager.placed(), 1u);
  EXPECT_EQ(manager.shed_to_fit(), 2u);
  EXPECT_TRUE(manager.schedulable());
  EXPECT_EQ(ids_of(manager.flows()), (std::vector<flow_id>{0}));
  EXPECT_EQ(manager.schedule().placements(),
            manager.admit(manager.flows()).sched.placements());
}

TEST(Shedding, EmptyRemainderIsTriviallySchedulable) {
  // A flow that cannot fit even alone (two hops, two attempts each,
  // 2-slot deadline) is shed; the empty remainder counts as schedulable.
  auto manager = path_manager();
  EXPECT_FALSE(manager.assign({make_flow(0, {{0, 1}, {1, 2}}, 10, 2)}));
  EXPECT_EQ(manager.shed_to_fit(), 1u);
  EXPECT_TRUE(manager.schedulable());
  EXPECT_TRUE(manager.flows().empty());
  EXPECT_EQ(manager.schedule().num_transmissions(), 0u);
}

TEST(Shedding, UnsortedInputStillShedsTheLowestPriorityFlow) {
  // The back of the workload is its lowest-priority flow only when ids
  // are dense priority ranks in order. Fed the flows of
  // DropsStrictlyFromTheBack in reverse, shedding must not drop f0,
  // the flow that happened to arrive last: the input is refused before
  // the held workload changes, and in priority order f2 then f1 go.
  auto manager = path_manager();
  const auto f0 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f1 = make_flow(1, {{1, 2}}, 10, 2);
  const auto f2 = make_flow(2, {{8, 9}}, 10, 2);
  ASSERT_TRUE(manager.assign({f0}));
  EXPECT_THROW(manager.assign({f2, f1, f0}), std::invalid_argument);
  EXPECT_EQ(ids_of(manager.flows()), (std::vector<flow_id>{0}));
  EXPECT_EQ(manager.flows()[0].route, f0.route);

  EXPECT_FALSE(manager.assign({f0, f1, f2}));
  EXPECT_EQ(manager.shed_to_fit(), 2u);
  EXPECT_EQ(ids_of(manager.flows()), (std::vector<flow_id>{0}));
}

TEST(Shedding, ReadmitsFlowsThatFitTheirOwnHyperperiod) {
  // On one channel, this WUSTL workload first fails at flow 12 on its
  // 400-slot hyperperiod, but flows 0-12 alone span 100 slots and fit:
  // RC's rho carries across hyperperiod blocks, so a later block can
  // fail where the first fits. Dropping the last flow until the rest
  // fits keeps 15 flows, and so must shed-to-fit; evicting from the
  // first unplaced flow alone would keep 12.
  network_manager manager(topo::make_wustl(), rc_config(1));
  flow::flow_set_params params;
  params.num_flows = 40;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = -1;
  params.period_max_exp = 2;
  rng gen(2);
  const auto flows = manager.generate_workload(params, gen).flows;
  ASSERT_FALSE(manager.assign(flows));
  ASSERT_EQ(manager.placed(), 12u);
  ASSERT_EQ(manager.schedule().num_slots(), 400);
  const std::vector<flow::flow> prefix(flows.begin(), flows.begin() + 13);
  ASSERT_TRUE(manager.admit(prefix).schedulable);
  EXPECT_EQ(manager.shed_to_fit(), flows.size() - 15);
  EXPECT_EQ(manager.flows().size(), fitting_prefix(manager, flows));
  expect_held_is_admit(manager, "after shed-to-fit");
}

TEST(Shedding, SparseIdsAreReportedAsGivenAndKeptFlowsRenumbered) {
  // Ids a caller keeps as handles need not be dense (e.g. from before an
  // earlier recovery), but the held workload's ids are priority ranks:
  // assign refuses sparse ones and keeps what it held. recover() then
  // names flows by their ranks, and the caller maps them back to its
  // handles: node 5 dies, handle 5 is unroutable, and the survivors 3,
  // 7 (conflicts with 3) and 12 (harmless) are renumbered 0, 1, 2.
  // Shedding drops 12 then 7; the kept flow comes back as rank 0, the
  // survivor of handle 3.
  auto manager = path_manager(/*watchdog_epochs=*/1);
  const std::vector<flow_id> handles{3, 5, 7, 12};
  const std::vector<flow::flow> sparse{
      make_flow(3, {{0, 1}}, 10, 2), make_flow(5, {{5, 6}}, 10, 10),
      make_flow(7, {{1, 2}}, 10, 2), make_flow(12, {{8, 9}}, 10, 2)};
  auto dense = sparse;
  for (std::size_t i = 0; i < dense.size(); ++i)
    dense[i].id = static_cast<flow_id>(i);
  EXPECT_FALSE(manager.assign(dense));
  EXPECT_THROW(manager.assign(sparse), std::invalid_argument);
  EXPECT_EQ(ids_of(manager.flows()), (std::vector<flow_id>{0, 1, 2, 3}));

  const auto outcome = manager.recover(healthy_except(sparse, 5));
  const auto handles_of = [&](const std::vector<flow_id>& ranks) {
    std::vector<flow_id> out;
    for (const flow_id r : ranks)
      out.push_back(handles[static_cast<std::size_t>(r)]);
    return out;
  };
  EXPECT_EQ(outcome.newly_dead, std::vector<node_id>{5});
  EXPECT_EQ(handles_of(outcome.unroutable_flows), std::vector<flow_id>{5});
  EXPECT_EQ(handles_of(outcome.shed_flows), (std::vector<flow_id>{12, 7}));
  EXPECT_EQ(handles_of(outcome.surviving_input_ids),
            std::vector<flow_id>{3});
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_EQ(manager.flows().size(), 1u);
  EXPECT_EQ(manager.flows()[0].id, 0);  // dense for the scheduler
  EXPECT_EQ(manager.flows()[0].route, sparse[0].route);
  ASSERT_TRUE(manager.schedulable());
}

TEST(Shedding, DuplicateIdsAreRejected) {
  // Two flows sharing rank 1 leave no single lowest-priority flow: the
  // workload is refused before the held workload changes.
  auto manager = path_manager();
  EXPECT_THROW(manager.assign({make_flow(0, {{0, 1}}, 10, 2),
                               make_flow(1, {{1, 2}}, 10, 2),
                               make_flow(1, {{8, 9}}, 10, 2)}),
               std::invalid_argument);
  EXPECT_TRUE(manager.flows().empty());
  EXPECT_TRUE(manager.schedulable());
}

TEST(Shedding, RecoverReportsShedFlowsByInputId) {
  // Node 5 dies, so flow 1 (5 -> 6) is unroutable; the survivors 0, 2
  // and 3 are renumbered 0, 1, 2 and do not fit (2 conflicts with 0, as
  // in DropsStrictlyFromTheBack). Shedding drops survivors 2 and 1 —
  // flows 3 and 2 of the held workload, which is how recover() must
  // name them.
  auto manager = path_manager(/*watchdog_epochs=*/1);
  const std::vector<flow::flow> flows{
      make_flow(0, {{0, 1}}, 10, 2), make_flow(1, {{5, 6}}, 10, 10),
      make_flow(2, {{1, 2}}, 10, 2), make_flow(3, {{8, 9}}, 10, 2)};
  EXPECT_FALSE(manager.assign(flows));

  const auto outcome = manager.recover(healthy_except(flows, 5));
  EXPECT_EQ(outcome.newly_dead, std::vector<node_id>{5});
  EXPECT_EQ(outcome.unroutable_flows, std::vector<flow_id>{1});
  EXPECT_EQ(outcome.shed_flows, (std::vector<flow_id>{3, 2}));
  EXPECT_EQ(outcome.surviving_input_ids, std::vector<flow_id>{0});
  ASSERT_TRUE(outcome.rescheduled);
  ASSERT_EQ(manager.flows().size(), 1u);
  EXPECT_EQ(manager.flows()[0].id, 0);
  EXPECT_EQ(manager.flows()[0].route, flows[0].route);
  ASSERT_TRUE(manager.schedulable());
  EXPECT_EQ(manager.schedule().placements(),
            core::schedule_flows(manager.flows(), manager.view().reuse_hops,
                                 core::make_config(core::algorithm::rc, 1))
                .sched.placements());
}

// ------------------------------------------------ held-workload equivalence --

struct manager_trace_summary {
  int admissions = 0;
  int refusals = 0;
  int batch_departures = 0;
  int isolations = 0;
  /// Operations that left the held workload unable to fit.
  int incomplete = 0;
  int sheds = 0;
  int deaths = 0;
  int rehabilitations = 0;
};

/// Random arrivals, batch departures, link isolations, node deaths and
/// rehabilitations on one manager. After every operation the held
/// workload equals admit(flows()), and a shed-to-fit (every other op)
/// keeps the longest prefix admit accepts.
manager_trace_summary run_manager_trace(const std::string& testbed,
                                        int channels, std::uint64_t seed,
                                        int ops) {
  auto config = rc_config(channels);
  config.watchdog_epochs = 1;
  // Built by value, moved, and the source destroyed: the held scheduler
  // points into the manager's view, which must outlive the source.
  auto source = std::make_unique<network_manager>(
      topo::make_named_testbed(testbed), config);
  network_manager manager = std::move(*source);
  source.reset();

  flow::flow_set_params params;
  params.num_flows = 30;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = -1;
  params.period_max_exp = 0;
  rng gen(seed);
  manager.assign(manager.generate_workload(params, gen).flows);
  expect_held_is_admit(manager, testbed + " initial");
  params.num_flows = 1;

  manager_trace_summary sum;
  for (int op = 0; op < ops; ++op) {
    const std::string context = testbed + " op " + std::to_string(op);
    const auto& held = manager.flows();
    const double kind = gen.uniform01();
    if (kind < 0.5) {
      flow::flow f;
      try {
        f = flow::generate_flow_set(manager.live_comm(), params, gen)
                .flows.front();
      } catch (const std::runtime_error&) {
        continue;  // no routable pair left
      }
      auto with_f = held;
      f.id = static_cast<flow_id>(with_f.size());
      with_f.push_back(f);
      const bool reference =
          manager.schedulable() && manager.admit(with_f).schedulable;
      const bool admitted = manager.admit_flow(f);
      EXPECT_EQ(admitted, reference) << context;
      ++(admitted ? sum.admissions : sum.refusals);
    } else if (kind < 0.6) {
      std::vector<flow_id> departed;
      for (std::size_t i = 0; i < held.size(); ++i)
        if (gen.bernoulli(0.2)) departed.push_back(static_cast<flow_id>(i));
      if (departed.size() > 1) ++sum.batch_departures;
      manager.evict_flows(departed);
    } else if (kind < 0.8) {
      if (held.empty()) continue;
      // Degrade a link that shares a cell when there is one, so the
      // isolation moves placements.
      const auto& sched = manager.schedule();
      const auto& route = held[static_cast<std::size_t>(gen.uniform_int(
                                   0, static_cast<int>(held.size()) - 1))]
                              .route;
      sim::link_key link{route.front().sender, route.front().receiver};
      for (const auto& p : sched.placements())
        if (sched.cell_load(p.slot, p.offset) > 1 &&
            manager.isolated_links().count({p.tx.sender, p.tx.receiver}) ==
                0) {
          link = {p.tx.sender, p.tx.receiver};
          break;
        }
      std::map<sim::link_key, sim::link_observations> reports;
      auto& obs = reports[link];
      for (int run = 0; run < 18; ++run) {
        obs.reuse_samples.emplace_back(run, 0.3);
        obs.cf_samples.emplace_back(run, 0.95 + 0.001 * run);
      }
      obs.reuse_attempts = 100;
      obs.reuse_successes = 30;
      obs.cf_attempts = 100;
      obs.cf_successes = 95;
      if (!manager.maintain(reports).newly_isolated.empty())
        ++sum.isolations;
    } else if (kind < 0.9) {
      if (held.empty()) continue;
      const auto& route = held[static_cast<std::size_t>(gen.uniform_int(
                                   0, static_cast<int>(held.size()) - 1))]
                              .route;
      const node_id victim =
          route[static_cast<std::size_t>(gen.uniform_int(
                    0, static_cast<int>(route.size()) - 1))]
              .sender;
      const auto outcome = manager.recover(healthy_except(held, victim));
      EXPECT_EQ(outcome.newly_dead, std::vector<node_id>{victim}) << context;
      EXPECT_TRUE(outcome.rescheduled) << context;
      EXPECT_TRUE(manager.schedulable()) << context;
      ++sum.deaths;
    } else {
      if (manager.dead_nodes().empty()) continue;
      const node_id revived = *manager.dead_nodes().begin();
      auto reports = healthy_except(held, k_invalid_node);
      reports[sim::link_key{revived, revived == 0 ? 1 : 0}]
          .cf_samples.emplace_back(0, 1.0);
      const auto outcome = manager.recover(reports);
      EXPECT_EQ(outcome.rehabilitated, std::vector<node_id>{revived})
          << context;
      EXPECT_FALSE(outcome.rescheduled) << context;
      ++sum.rehabilitations;
    }
    if (!manager.schedulable()) ++sum.incomplete;
    expect_held_is_admit(manager, context);

    // G_c minus the dead set, kept across operations.
    const auto live = graph::remove_nodes(manager.view().comm,
                                          manager.dead_nodes());
    for (node_id u = 0; u < live.num_nodes(); ++u)
      EXPECT_EQ(manager.live_comm().neighbors(u), live.neighbors(u))
          << context << " node " << u;

    if (gen.bernoulli(0.5)) {
      const auto before = manager.flows();
      const std::size_t shed = manager.shed_to_fit();
      EXPECT_EQ(manager.flows().size(), fitting_prefix(manager, before))
          << context << ": shed-to-fit kept a different prefix";
      EXPECT_EQ(shed, before.size() - manager.flows().size()) << context;
      EXPECT_TRUE(manager.schedulable()) << context;
      if (shed > 0) ++sum.sheds;
      expect_held_is_admit(manager, context + " after shed-to-fit");
    }
  }
  return sum;
}

void expect_full_coverage(const manager_trace_summary& sum) {
  EXPECT_GT(sum.admissions, 0);
  EXPECT_GT(sum.refusals, 0);
  EXPECT_GT(sum.batch_departures, 0);
  EXPECT_GT(sum.isolations, 0);
  EXPECT_GT(sum.incomplete, 0);
  EXPECT_GT(sum.sheds, 0);
  EXPECT_GT(sum.deaths, 0);
  EXPECT_GT(sum.rehabilitations, 0);
}

// Few channels, so RC reuses and isolations leave workloads that do not
// fit. (Deterministic given the seed: tune the seed, not the coverage.)
TEST(ManagerEquivalence, HeldWorkloadMatchesAdmitOnWustl) {
  expect_full_coverage(run_manager_trace("wustl", 1, 2, 120));
}

TEST(ManagerEquivalence, HeldWorkloadMatchesAdmitOnIndriya) {
  expect_full_coverage(run_manager_trace("indriya", 2, 2, 120));
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
