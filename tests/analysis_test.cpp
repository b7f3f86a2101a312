#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analysis.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"

namespace wsan::core {
namespace {

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

// ----------------------------------------------------------- helpers --

TEST(Analysis, TransmissionsPerInstanceCountsRetries) {
  const auto f = make_flow(0, {{0, 1}, {1, 2}}, 100, 80);
  EXPECT_EQ(transmissions_per_instance(f, 1), 4);
  EXPECT_EQ(transmissions_per_instance(f, 0), 2);
  EXPECT_EQ(transmissions_per_instance(f, 2), 6);
}

TEST(Analysis, ConflictBoundCountsSharedNodes) {
  const auto f = make_flow(0, {{0, 1}, {1, 2}}, 100, 80);
  // hp shares node 2 on one link, nothing on the other.
  const auto hp = make_flow(1, {{2, 3}, {3, 4}}, 100, 80);
  EXPECT_EQ(conflict_bound(f, hp, 1), 2);   // 1 link x 2 attempts
  EXPECT_EQ(conflict_bound(f, hp, 0), 1);
  // Disjoint flows never conflict.
  const auto far = make_flow(1, {{7, 8}}, 100, 80);
  EXPECT_EQ(conflict_bound(f, far, 1), 0);
}

// ------------------------------------------------------ single flows --

TEST(Analysis, HighestPriorityFlowBoundIsItsOwnLength) {
  const auto f = make_flow(0, {{0, 1}, {1, 2}, {2, 3}}, 100, 80);
  const auto result = analyze_response_times({f}, 4);
  ASSERT_EQ(result.bounds.size(), 1u);
  EXPECT_TRUE(result.schedulable);
  EXPECT_EQ(result.bounds[0].bound, 6);  // 3 links x 2 attempts
  EXPECT_TRUE(result.bounds[0].guaranteed);
}

TEST(Analysis, TooTightDeadlineIsRejected) {
  const auto f = make_flow(0, {{0, 1}, {1, 2}, {2, 3}}, 100, 5);
  const auto result = analyze_response_times({f}, 4);
  EXPECT_FALSE(result.schedulable);
  EXPECT_FALSE(result.bounds[0].guaranteed);
  EXPECT_EQ(result.bounds[0].bound, 6);  // D + 1
}

TEST(Analysis, HandComputedTwoFlowCase) {
  // F0: one link 0->1 (C=2, P=20). F1: one link 5->6 (C=2), disjoint:
  // Delta = 0, only channel contention matters. With 1 channel:
  // R = 2 + floor((ceil(R/20)+1)*2 / 1) -> R = 2 + 2*((ceil(R/20)+1)).
  // R0 = 2 -> N0 = 2 -> R = 6 -> N0 = 2 -> R = 6. Converges at 6.
  const auto f0 = make_flow(0, {{0, 1}}, 20, 20);
  const auto f1 = make_flow(1, {{5, 6}}, 20, 20);
  const auto result = analyze_response_times({f0, f1}, 1);
  ASSERT_TRUE(result.schedulable);
  EXPECT_EQ(result.bounds[0].bound, 2);
  EXPECT_EQ(result.bounds[1].bound, 6);
  // With 4 channels the channel term shrinks: floor(4/4)=1 -> R=3.
  const auto wide = analyze_response_times({f0, f1}, 4);
  EXPECT_EQ(wide.bounds[1].bound, 3);
}

TEST(Analysis, MoreChannelsNeverHurt) {
  std::vector<flow::flow> flows;
  flows.push_back(make_flow(0, {{0, 1}, {1, 2}}, 50, 40));
  flows.push_back(make_flow(1, {{3, 4}, {4, 5}}, 50, 45));
  flows.push_back(make_flow(2, {{6, 7}, {7, 8}}, 100, 90));
  slot_t prev = 0;
  for (int m = 1; m <= 8; ++m) {
    const auto result = analyze_response_times(flows, m);
    const slot_t last = result.bounds.back().bound;
    if (m > 1) {
      EXPECT_LE(last, prev);
    }
    prev = last;
  }
}

TEST(Analysis, RejectsBadInput) {
  EXPECT_THROW(analyze_response_times({}, 4), std::invalid_argument);
  const auto f = make_flow(0, {{0, 1}}, 10, 10);
  EXPECT_THROW(analyze_response_times({f}, 0), std::invalid_argument);
  auto bad = f;
  bad.id = 3;  // non-dense ids
  EXPECT_THROW(analyze_response_times({bad}, 4), std::invalid_argument);
}

// -------------------------------------------------- soundness property --

TEST(Analysis, GuaranteeImpliesNrSchedulability) {
  // The analysis is sufficient: whenever it guarantees a workload, the
  // NR scheduler must actually schedule it. Checked over randomized
  // testbed workloads.
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));

  int guaranteed_sets = 0;
  for (std::uint64_t seed = 400; seed < 440; ++seed) {
    flow::flow_set_params params;
    params.num_flows = 12;
    params.period_min_exp = 0;
    params.period_max_exp = 2;
    rng gen(seed);
    const auto set = flow::generate_flow_set(view.comm, params, gen);
    const auto analysis = analyze_response_times(set.flows, 4);
    if (!analysis.schedulable) continue;
    ++guaranteed_sets;
    const auto scheduled = schedule_flows(
        set.flows, view.reuse_hops, make_config(algorithm::nr, 4));
    EXPECT_TRUE(scheduled.schedulable) << "seed " << seed;
  }
  // The analysis must not be vacuous on light workloads.
  EXPECT_GT(guaranteed_sets, 5);
}

TEST(Analysis, BoundsDominateObservedDelays) {
  // For guaranteed workloads, the analytical bound is an upper bound on
  // the NR scheduler's actual worst-case delay (per flow).
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));

  int checked = 0;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    flow::flow_set_params params;
    params.num_flows = 10;
    params.period_min_exp = 0;
    params.period_max_exp = 1;
    rng gen(seed);
    const auto set = flow::generate_flow_set(view.comm, params, gen);
    const auto analysis = analyze_response_times(set.flows, 4);
    if (!analysis.schedulable) continue;
    const auto scheduled = schedule_flows(
        set.flows, view.reuse_hops, make_config(algorithm::nr, 4));
    ASSERT_TRUE(scheduled.schedulable);
    ++checked;
    // Observed per-instance delay <= analytical bound.
    for (const auto& p : scheduled.sched.placements()) {
      const auto& f = set.flows[static_cast<std::size_t>(p.tx.flow)];
      const slot_t delay = p.slot - f.release_slot(p.tx.instance) + 1;
      EXPECT_LE(delay,
                analysis.bounds[static_cast<std::size_t>(p.tx.flow)]
                    .bound)
          << "seed " << seed << " flow " << p.tx.flow;
    }
  }
  EXPECT_GT(checked, 3);
}

}  // namespace
}  // namespace wsan::core
