// Equivalence oracle for the scheduler's occupancy index: on randomized
// workloads, the indexed hot path (per-node busy-slot bitsets, full-slot
// bits and cell node masks) must produce placement-identical schedules
// to the naive reference scans it replaces. Any divergence — in
// schedulability, in a single (tx, slot, offset) placement, or in
// search-effort counters — is a bug in the index maintenance.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"

namespace wsan {
namespace {

const graph::network_view& shared_world(int num_channels) {
  static std::map<int, graph::network_view> cache;
  auto it = cache.find(num_channels);
  if (it == cache.end()) {
    auto view = graph::make_network_view(topo::make_wustl(),
                                         phy::channels(num_channels));
    it = cache.emplace(num_channels, std::move(view)).first;
  }
  return it->second;
}

flow::flow_set make_workload(const graph::network_view& w, int flows,
                             std::uint64_t seed) {
  flow::flow_set_params params;
  params.num_flows = flows;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = 0;
  params.period_max_exp = 2;
  rng gen(seed);
  return flow::generate_flow_set(w.comm, params, gen);
}

class IndexEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IndexEquivalence, IndexedAndNaivePlacementsAreIdentical) {
  const auto [seed, num_channels, management_period] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set =
      make_workload(w, 25, static_cast<std::uint64_t>(seed));

  for (const auto algo : {core::algorithm::nr, core::algorithm::ra,
                          core::algorithm::rc}) {
    auto config = core::make_config(algo, num_channels);
    config.management_slot_period = management_period;

    config.use_occupancy_index = true;
    const auto indexed =
        core::schedule_flows(set.flows, w.reuse_hops, config);
    config.use_occupancy_index = false;
    const auto naive =
        core::schedule_flows(set.flows, w.reuse_hops, config);

    ASSERT_EQ(indexed.schedulable, naive.schedulable)
        << core::to_string(algo) << " seed=" << seed
        << " channels=" << num_channels << " mgmt=" << management_period;
    EXPECT_EQ(indexed.first_failed_flow, naive.first_failed_flow);
    ASSERT_EQ(indexed.sched.placements(), naive.sched.placements())
        << core::to_string(algo) << " seed=" << seed
        << " channels=" << num_channels << " mgmt=" << management_period;

    // Both paths examine the same slots and cells; only how a check is
    // answered differs.
    EXPECT_EQ(indexed.stats.find_slot_calls, naive.stats.find_slot_calls);
    EXPECT_EQ(indexed.stats.laxity_evaluations,
              naive.stats.laxity_evaluations);
    EXPECT_EQ(indexed.stats.reuse_placements, naive.stats.reuse_placements);
    EXPECT_EQ(indexed.stats.probes.slots_scanned,
              naive.stats.probes.slots_scanned);
    EXPECT_EQ(indexed.stats.probes.cells_probed,
              naive.stats.probes.cells_probed);
    EXPECT_EQ(naive.stats.probes.index_hits, 0u);
    if (indexed.stats.probes.slots_scanned > 0) {
      EXPECT_GT(indexed.stats.probes.index_hits, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IndexEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(0, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_ch" +
             std::to_string(std::get<1>(info.param)) + "_mgmt" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace wsan
