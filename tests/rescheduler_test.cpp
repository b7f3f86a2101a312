#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scheduler.h"
#include "core/slot_finder.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"
#include "tsch/validate.h"

namespace wsan::core {
namespace {

graph::hop_matrix path_hops(int n) {
  graph::graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return graph::hop_matrix(g);
}

tsch::transmission make_tx(node_id sender, node_id receiver) {
  tsch::transmission tx;
  tx.sender = sender;
  tx.receiver = receiver;
  return tx;
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

// ---------------------------------------------- isolation in find_slot --

TEST(Isolation, IsolatedTransmissionRequiresEmptyCell) {
  const auto hops = path_hops(10);
  tsch::schedule sched(10, 1);
  sched.add(make_tx(8, 9), 0, 0);

  const link_set isolated{{0, 1}};
  // Without isolation, 0->1 may join slot 0 under reuse.
  const auto open = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                              channel_policy::min_load, nullptr);
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->slot, 0);
  // With isolation, it must take the next empty cell.
  const auto guarded = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                                 channel_policy::min_load, &isolated);
  ASSERT_TRUE(guarded.has_value());
  EXPECT_EQ(guarded->slot, 1);
}

TEST(Isolation, NobodyJoinsAnIsolatedTransmission) {
  const auto hops = path_hops(10);
  tsch::schedule sched(10, 1);
  sched.add(make_tx(0, 1), 0, 0);  // this link is isolated

  const link_set isolated{{0, 1}};
  const auto found = find_slot(sched, make_tx(8, 9), 0, 9, 2, hops,
                               channel_policy::min_load, &isolated);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 1);  // may not share slot 0's cell
}

TEST(Isolation, EmptyIsolationSetChangesNothing) {
  const auto hops = path_hops(10);
  tsch::schedule sched(10, 1);
  sched.add(make_tx(8, 9), 0, 0);
  const link_set empty;
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::min_load, &empty);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 0);
}

// ------------------------------------------------ scheduler integration --

TEST(Rescheduler, IsolatedLinksGetExclusiveCells) {
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 20, 20);
  const auto f2 = make_flow(1, {{8, 9}}, 20, 20);

  auto config = make_config(algorithm::ra, 1);
  const auto before = schedule_flows({f1, f2}, hops, config);
  ASSERT_TRUE(before.schedulable);
  EXPECT_GT(before.stats.reuse_placements, 0u);  // RA shares the cell

  config.isolated_links = {{0, 1}};
  const auto repaired = schedule_flows({f1, f2}, hops, config);
  ASSERT_TRUE(repaired.schedulable);
  EXPECT_EQ(repaired.stats.reuse_placements, 0u);
  // Every cell containing 0->1 is exclusive.
  const auto& sched = repaired.sched;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto& cell = sched.cell(s, c);
      if (cell.size() < 2) continue;
      for (const auto& tx : cell) {
        EXPECT_FALSE(tx.sender == 0 && tx.receiver == 1);
      }
    }
  }
}

TEST(Rescheduler, ReportsUnschedulableWhenIsolationDoesNotFit) {
  // Two distant flows with 2-slot deadlines on one channel fit only via
  // reuse; isolating one link removes the needed concurrency.
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f2 = make_flow(1, {{8, 9}}, 10, 2);
  auto config = make_config(algorithm::rc, 1);
  const auto before = schedule_flows({f1, f2}, hops, config);
  ASSERT_TRUE(before.schedulable);
  config.isolated_links = {{8, 9}};
  EXPECT_FALSE(schedule_flows({f1, f2}, hops, config).schedulable);
}

TEST(Rescheduler, LargeIsolationSetReportsTheFailingFlow) {
  // Isolating *every* scheduled link removes all concurrency: each link
  // needs its own exclusive cells, and the tight deadlines stop fitting.
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f2 = make_flow(1, {{8, 9}}, 10, 2);
  auto config = make_config(algorithm::rc, 1);
  ASSERT_TRUE(schedule_flows({f1, f2}, hops, config).schedulable);

  config.isolated_links = {{0, 1}, {8, 9}};
  const auto repaired = schedule_flows({f1, f2}, hops, config);
  ASSERT_FALSE(repaired.schedulable);
  EXPECT_EQ(repaired.first_failed_flow, 1);
}

// --------------------------------------------------- testbed round trip --

TEST(Rescheduler, RepairedScheduleStillValidates) {
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));

  flow::flow_set_params params;
  params.num_flows = 30;
  rng gen(77);
  const auto set = flow::generate_flow_set(view.comm, params, gen);
  auto config = make_config(algorithm::ra, 4);
  const auto before = schedule_flows(set.flows, view.reuse_hops, config);
  ASSERT_TRUE(before.schedulable);

  // Isolate the first few links that appear in reusing cells.
  link_set degraded;
  for (slot_t s = 0; s < before.sched.num_slots() && degraded.size() < 3;
       ++s) {
    for (offset_t c = 0; c < before.sched.num_offsets(); ++c) {
      const auto& cell = before.sched.cell(s, c);
      if (cell.size() < 2) continue;
      degraded.insert({cell.front().sender, cell.front().receiver});
      break;
    }
  }
  ASSERT_FALSE(degraded.empty());

  config.isolated_links = degraded;
  const auto repaired = schedule_flows(set.flows, view.reuse_hops, config);
  if (!repaired.schedulable) return;  // load no longer fits: legal
  tsch::validation_options opts;
  opts.min_reuse_hops = 2;
  const auto validation = tsch::validate_schedule(
      repaired.sched, set.flows, view.reuse_hops, opts);
  EXPECT_TRUE(validation.ok)
      << (validation.violations.empty() ? ""
                                        : validation.violations.front());
  // No reusing cell contains an isolated link.
  const auto& sched = repaired.sched;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto& cell = sched.cell(s, c);
      if (cell.size() < 2) continue;
      for (const auto& tx : cell) {
        EXPECT_EQ(degraded.count({tx.sender, tx.receiver}), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace wsan::core
