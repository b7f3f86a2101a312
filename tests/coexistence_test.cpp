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

TEST(Coexistence, MergeShiftsNetworkBIntoTheMergedIds) {
  const auto ta = topo::make_wustl(1);
  const auto tb = topo::make_wustl(2);
  const auto na = build_network(ta, 12, 11);
  const auto nb = build_network(tb, 12, 13);
  ASSERT_TRUE(na.scheduled.schedulable);
  ASSERT_TRUE(nb.scheduled.schedulable);
  const auto merged = topo::merge_topologies(ta, tb, 0.0, 9);
  const node_id offset = merged.node_offset;
  const auto net = sim::merge_networks(
      {na.scheduled.sched, na.set.flows}, {nb.scheduled.sched, nb.set.flows},
      offset);

  // a's flows unchanged, then b's with ids after a's and nodes shifted.
  const std::size_t na_flows = na.set.flows.size();
  ASSERT_EQ(net.flows.size(), na_flows + nb.set.flows.size());
  for (std::size_t i = 0; i < na_flows; ++i)
    EXPECT_EQ(net.flows[i].route, na.set.flows[i].route);
  for (std::size_t i = 0; i < nb.set.flows.size(); ++i) {
    const auto& f = net.flows[na_flows + i];
    const auto& orig = nb.set.flows[i];
    EXPECT_EQ(f.id, static_cast<flow_id>(na_flows + i));
    EXPECT_EQ(f.source, orig.source + offset);
    EXPECT_EQ(f.destination, orig.destination + offset);
    ASSERT_EQ(f.route.size(), orig.route.size());
    for (std::size_t l = 0; l < f.route.size(); ++l) {
      EXPECT_EQ(f.route[l].sender, orig.route[l].sender + offset);
      EXPECT_EQ(f.route[l].receiver, orig.route[l].receiver + offset);
    }
    EXPECT_NO_THROW(flow::validate_flow(f));
  }

  // a's placements first, then b's, shifted; b's nodes are busy in the
  // merged index and the two networks share cells.
  const auto& pa = na.scheduled.sched.placements();
  const auto& pb = nb.scheduled.sched.placements();
  const auto& pm = net.sched.placements();
  ASSERT_EQ(pm.size(), pa.size() + pb.size());
  EXPECT_EQ(net.sched.num_slots(), na.scheduled.sched.num_slots());
  EXPECT_EQ(net.sched.num_offsets(), 4);
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pm[i].tx.sender, pa[i].tx.sender);
  bool shared = false;
  for (std::size_t i = 0; i < pb.size(); ++i) {
    const auto& p = pm[pa.size() + i];
    EXPECT_EQ(p.tx.flow, pb[i].tx.flow + static_cast<flow_id>(na_flows));
    EXPECT_EQ(p.tx.sender, pb[i].tx.sender + offset);
    EXPECT_EQ(p.tx.receiver, pb[i].tx.receiver + offset);
    EXPECT_EQ(p.slot, pb[i].slot);
    EXPECT_EQ(p.offset, pb[i].offset);
    EXPECT_TRUE(net.sched.node_busy(p.tx.sender, p.slot));
    shared = shared || na.scheduled.sched.cell_load(p.slot, p.offset) > 0;
  }
  EXPECT_TRUE(shared);
}

TEST(Coexistence, DistantNetworksDoNotInterfere) {
  const auto ta = topo::make_wustl(1);
  const auto tb = topo::make_wustl(2);
  auto na = build_network(ta, 12, 11);
  auto nb = build_network(tb, 12, 13);
  ASSERT_TRUE(na.scheduled.schedulable);
  ASSERT_TRUE(nb.scheduled.schedulable);

  const auto results = sim::run_coexistence(
      topo::merge_topologies(ta, tb, 2000.0, 9),
      {na.scheduled.sched, na.set.flows}, {nb.scheduled.sched, nb.set.flows},
      /*runs=*/30, /*seed=*/42);
  // 2 km apart: both networks deliver essentially everything.
  EXPECT_GT(results[0].network_pdr, 0.99);
  EXPECT_GT(results[1].network_pdr, 0.99);
  // Each network's slice holds its own 12 flows, each releasing one
  // instance per run (1 s periods).
  for (const auto& r : results)
    EXPECT_DOUBLE_EQ(r.network_pdr,
                     static_cast<double>(r.instances_delivered) / (30 * 12));
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
    const auto results = sim::run_coexistence(
        topo::merge_topologies(ta, tb, separation, 9),
        {na.scheduled.sched, na.set.flows},
        {nb.scheduled.sched, nb.set.flows}, /*runs=*/30, /*seed=*/42);
    return std::min(results[0].worst_flow_pdr, results[1].worst_flow_pdr);
  };

  const double overlapped = run_at(0.0);
  const double separated = run_at(2000.0);
  EXPECT_GT(separated, 0.95);
  EXPECT_LT(overlapped, separated - 0.2);
}

TEST(Coexistence, RejectsBadConfig) {
  const auto ta = topo::make_wustl(1);
  const auto merged = topo::merge_topologies(ta, ta, 2000.0, 9);
  const auto na = build_network(ta, 5, 11);
  const sim::coexisting_network a{na.scheduled.sched, na.set.flows};
  // Schedules of another hyperperiod or offset count cannot share one
  // channel list and one ASN sequence.
  const std::vector<flow::flow> no_flows;
  const tsch::schedule longer(na.scheduled.sched.num_slots() * 2, 4);
  const tsch::schedule wider(na.scheduled.sched.num_slots(), 3);
  const sim::coexisting_network b_longer{longer, no_flows};
  const sim::coexisting_network b_wider{wider, no_flows};
  EXPECT_THROW(sim::run_coexistence(merged, a, b_longer, 5, 1),
               std::invalid_argument);
  EXPECT_THROW(sim::run_coexistence(merged, a, b_wider, 5, 1),
               std::invalid_argument);
  EXPECT_THROW(sim::run_coexistence(merged, a, a, 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsan
