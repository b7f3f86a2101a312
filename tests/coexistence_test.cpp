#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "sim/coexistence.h"
#include "topo/merge.h"
#include "topo/testbeds.h"

namespace wsan {
namespace {

// --------------------------------------------------------------- merge --

TEST(Merge, PreservesIntraDeploymentState) {
  const auto a = topo::make_wustl(1);
  const auto b = topo::make_wustl(2);
  const auto merged = topo::merge_topologies(a, b, 200.0, 9);

  ASSERT_EQ(merged.merged.num_nodes(), a.num_nodes() + b.num_nodes());
  EXPECT_EQ(merged.node_offset, a.num_nodes());
  for (node_id u = 0; u < 10; ++u) {
    for (node_id v = 10; v < 20; ++v) {
      EXPECT_DOUBLE_EQ(merged.merged.rssi_dbm(u, v, 12),
                       a.rssi_dbm(u, v, 12));
      EXPECT_DOUBLE_EQ(
          merged.merged.rssi_dbm(merged.node_offset + u,
                                 merged.node_offset + v, 12),
          b.rssi_dbm(u, v, 12));
    }
  }
  // b's positions are shifted by the offset.
  EXPECT_NEAR(merged.merged.position_of(merged.node_offset).x,
              b.position_of(0).x + 200.0, 1e-9);
}

TEST(Merge, CrossLinksWeakenWithSeparation) {
  const auto a = topo::make_wustl(1);
  const auto b = topo::make_wustl(2);
  const auto near = topo::merge_topologies(a, b, 30.0, 9);
  const auto far = topo::merge_topologies(a, b, 500.0, 9);
  double near_best = -300.0;
  double far_best = -300.0;
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    for (node_id v = 0; v < b.num_nodes(); ++v) {
      near_best = std::max(
          near_best, near.merged.rssi_dbm(u, near.node_offset + v, 11));
      far_best = std::max(
          far_best, far.merged.rssi_dbm(u, far.node_offset + v, 11));
    }
  }
  EXPECT_GT(near_best, far_best + 20.0);
}

TEST(Merge, RejectsDegenerateInput) {
  const auto a = topo::make_wustl(1);
  EXPECT_THROW(topo::merge_topologies(a, a, -5.0, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------- id shifts --

TEST(Shift, FlowsAndSchedulesShiftTogether) {
  flow::flow f;
  f.id = 0;
  f.source = 1;
  f.destination = 3;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{1, 2}, flow::link{2, 3}};
  f.uplink_links = 2;
  std::vector<flow::flow> flows{f};
  flow::shift_node_ids(flows, 100);
  EXPECT_EQ(flows[0].source, 101);
  EXPECT_EQ(flows[0].route[1].receiver, 103);
  EXPECT_NO_THROW(flow::validate_flow(flows[0]));

  tsch::schedule sched(10, 2);
  tsch::transmission tx;
  tx.flow = 0;
  tx.sender = 1;
  tx.receiver = 2;
  sched.add(tx, 0, 0);
  const auto shifted = tsch::shift_node_ids(sched, 100);
  EXPECT_EQ(shifted.placements().front().tx.sender, 101);
  EXPECT_EQ(shifted.placements().front().tx.receiver, 102);
}

// --------------------------------------------------------- coexistence --

struct standalone {
  flow::flow_set set;
  core::schedule_result scheduled;
};

standalone build_network(const topo::topology& t, int flows,
                         std::uint64_t seed) {
  const auto view = graph::make_network_view(t, phy::channels(4));
  flow::flow_set_params params;
  params.num_flows = flows;
  params.period_min_exp = 0;
  params.period_max_exp = 0;
  rng gen(seed);
  standalone out;
  out.set = flow::generate_flow_set(view.comm, params, gen);
  out.scheduled =
      core::schedule_flows(out.set.flows, view.reuse_hops,
                           core::make_config(core::algorithm::rc, 4));
  return out;
}

TEST(Coexistence, DistantNetworksDoNotInterfere) {
  const auto ta = topo::make_wustl(1);
  const auto tb = topo::make_wustl(2);
  auto na = build_network(ta, 12, 11);
  auto nb = build_network(tb, 12, 13);
  ASSERT_TRUE(na.scheduled.schedulable);
  ASSERT_TRUE(nb.scheduled.schedulable);

  const auto merged = topo::merge_topologies(ta, tb, 2000.0, 9);
  auto flows_b = nb.set.flows;
  flow::shift_node_ids(flows_b, merged.node_offset);
  const auto sched_b =
      tsch::shift_node_ids(nb.scheduled.sched, merged.node_offset);

  const std::vector<sim::coexisting_network> networks{
      {&na.scheduled.sched, &na.set.flows, phy::channels(4), 0},
      {&sched_b, &flows_b, phy::channels(4), 0},
  };
  sim::coexistence_config config;
  config.runs = 30;
  const auto results =
      sim::run_coexistence(merged.merged, networks, config);
  ASSERT_EQ(results.size(), 2u);
  // 2 km apart: both networks deliver essentially everything.
  EXPECT_GT(results[0].network_pdr(), 0.99);
  EXPECT_GT(results[1].network_pdr(), 0.99);
}

TEST(Coexistence, AdjacentNetworksDegradeEachOther) {
  // Retransmissions absorb occasional collisions, so the sensitive
  // metric is the worst flow: a flow whose cells systematically collide
  // with the other network's loses most of its packets.
  const auto ta = topo::make_wustl(1);
  const auto tb = topo::make_wustl(2);
  auto na = build_network(ta, 25, 11);
  auto nb = build_network(tb, 25, 13);
  ASSERT_TRUE(na.scheduled.schedulable);
  ASSERT_TRUE(nb.scheduled.schedulable);

  const auto run_at = [&](double separation) {
    const auto merged = topo::merge_topologies(ta, tb, separation, 9);
    auto flows_b = nb.set.flows;
    flow::shift_node_ids(flows_b, merged.node_offset);
    const auto sched_b =
        tsch::shift_node_ids(nb.scheduled.sched, merged.node_offset);
    const std::vector<sim::coexisting_network> networks{
        {&na.scheduled.sched, &na.set.flows, phy::channels(4), 0},
        {&sched_b, &flows_b, phy::channels(4), 0},
    };
    sim::coexistence_config config;
    config.runs = 30;
    const auto results =
        sim::run_coexistence(merged.merged, networks, config);
    return std::min(results[0].worst_flow_pdr(),
                    results[1].worst_flow_pdr());
  };

  const double overlapped = run_at(0.0);
  const double separated = run_at(2000.0);
  EXPECT_GT(separated, 0.95);
  EXPECT_LT(overlapped, separated - 0.2);
}

TEST(Coexistence, SingleNetworkIsWellBehaved) {
  const auto ta = topo::make_wustl(1);
  auto na = build_network(ta, 12, 11);
  ASSERT_TRUE(na.scheduled.schedulable);
  const std::vector<sim::coexisting_network> networks{
      {&na.scheduled.sched, &na.set.flows, phy::channels(4), 0}};
  sim::coexistence_config config;
  config.runs = 20;
  const auto results = sim::run_coexistence(ta, networks, config);
  ASSERT_EQ(results.size(), 1u);
  // RC schedules on >=0.9-PRR links with retries and no drift model:
  // delivery is near-perfect.
  EXPECT_GT(results[0].network_pdr(), 0.98);
}

TEST(Coexistence, RejectsBadConfig) {
  const auto ta = topo::make_wustl(1);
  EXPECT_THROW(sim::run_coexistence(ta, {}, {}), std::invalid_argument);
  auto na = build_network(ta, 5, 11);
  const std::vector<sim::coexisting_network> bad{
      {&na.scheduled.sched, &na.set.flows, phy::channels(3), 0}};
  EXPECT_THROW(sim::run_coexistence(ta, bad, {}), std::invalid_argument);
}

}  // namespace
}  // namespace wsan
