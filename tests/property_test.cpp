// Property-based tests: invariants that must hold over randomized
// workloads, parameterized over seeds and channel counts.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

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

// ----------------------------------------------- per-seed invariants ---

class ScheduleInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleInvariants, EverySchedulableResultValidates) {
  const auto [seed, num_channels] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set =
      make_workload(w, 25, static_cast<std::uint64_t>(seed));

  for (const auto algo : {core::algorithm::nr, core::algorithm::ra,
                          core::algorithm::rc}) {
    const auto result = core::schedule_flows(
        set.flows, w.reuse_hops, core::make_config(algo, num_channels));
    if (!result.schedulable) continue;

    tsch::validation_options opts;
    opts.min_reuse_hops =
        algo == core::algorithm::nr ? k_infinite_hops : 2;
    const auto validation = tsch::validate_schedule(
        result.sched, set.flows, w.reuse_hops, opts);
    ASSERT_TRUE(validation.ok)
        << core::to_string(algo) << " seed=" << seed
        << " channels=" << num_channels << ": "
        << (validation.violations.empty() ? ""
                                          : validation.violations.front());
  }
}

TEST_P(ScheduleInvariants, NrSchedulesNeverShareCells) {
  const auto [seed, num_channels] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set = make_workload(w, 20, static_cast<std::uint64_t>(seed));
  const auto result = core::schedule_flows(
      set.flows, w.reuse_hops,
      core::make_config(core::algorithm::nr, num_channels));
  if (!result.schedulable) return;
  const auto hist = tsch::tx_per_channel_histogram(result.sched);
  if (!hist.empty()) {
    EXPECT_EQ(hist.max_value(), 1);
  }
  EXPECT_EQ(result.stats.reuse_placements, 0u);
}

TEST_P(ScheduleInvariants, ReusingCellsRespectRhoT) {
  const auto [seed, num_channels] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set = make_workload(w, 30, static_cast<std::uint64_t>(seed));
  for (const auto algo : {core::algorithm::ra, core::algorithm::rc}) {
    const auto result = core::schedule_flows(
        set.flows, w.reuse_hops, core::make_config(algo, num_channels));
    if (!result.schedulable) continue;
    const auto hist =
        tsch::reuse_hop_count_histogram(result.sched, w.reuse_hops);
    if (!hist.empty()) {
      EXPECT_GE(hist.min_value(), 2)
          << core::to_string(algo) << " seed=" << seed;
    }
  }
}

TEST_P(ScheduleInvariants, RcReusesAtMostAsMuchAsRa) {
  const auto [seed, num_channels] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set = make_workload(w, 30, static_cast<std::uint64_t>(seed));
  const auto ra = core::schedule_flows(
      set.flows, w.reuse_hops,
      core::make_config(core::algorithm::ra, num_channels));
  const auto rc = core::schedule_flows(
      set.flows, w.reuse_hops,
      core::make_config(core::algorithm::rc, num_channels));
  if (!ra.schedulable || !rc.schedulable) return;
  EXPECT_LE(rc.stats.reuse_placements, ra.stats.reuse_placements)
      << "seed=" << seed << " channels=" << num_channels;
}

TEST_P(ScheduleInvariants, IsolationIsHonoredUnderEveryAlgorithm) {
  const auto [seed, num_channels] = GetParam();
  const auto& w = shared_world(num_channels);
  const auto set = make_workload(w, 20, static_cast<std::uint64_t>(seed));

  // Isolate the first few distinct links of the workload's routes.
  core::link_set isolated;
  for (const auto& f : set.flows) {
    for (const auto& l : f.route) {
      if (isolated.size() >= 3) break;
      isolated.insert({l.sender, l.receiver});
    }
  }

  for (const auto algo : {core::algorithm::nr, core::algorithm::ra,
                          core::algorithm::rc}) {
    auto config = core::make_config(algo, num_channels);
    config.isolated_links = isolated;
    const auto result =
        core::schedule_flows(set.flows, w.reuse_hops, config);
    if (!result.schedulable) continue;
    for (slot_t s = 0; s < result.sched.num_slots(); ++s) {
      for (offset_t c = 0; c < result.sched.num_offsets(); ++c) {
        const auto& cell = result.sched.cell(s, c);
        if (cell.size() < 2) continue;
        for (const auto& tx : cell) {
          ASSERT_EQ(isolated.count({tx.sender, tx.receiver}), 0u)
              << core::to_string(algo) << " seed=" << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScheduleInvariants,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
        ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_ch" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------- aggregate dominance laws ---

TEST(SchedulabilityDominance, ReuseNeverHurtsInAggregate) {
  // Over a batch of random workloads: RA and RC schedule at least as
  // many flow sets as NR (the mechanism behind Figures 1-3).
  const auto& w = shared_world(3);
  int nr_ok = 0;
  int ra_ok = 0;
  int rc_ok = 0;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const auto set = make_workload(w, 35, seed);
    nr_ok += core::schedule_flows(set.flows, w.reuse_hops,
                                  core::make_config(core::algorithm::nr, 3))
                 .schedulable
                 ? 1
                 : 0;
    ra_ok += core::schedule_flows(set.flows, w.reuse_hops,
                                  core::make_config(core::algorithm::ra, 3))
                 .schedulable
                 ? 1
                 : 0;
    rc_ok += core::schedule_flows(set.flows, w.reuse_hops,
                                  core::make_config(core::algorithm::rc, 3))
                 .schedulable
                 ? 1
                 : 0;
  }
  EXPECT_GE(ra_ok, nr_ok);
  EXPECT_GE(rc_ok, nr_ok);
}

TEST(SchedulabilityDominance, TighterRhoTIsMoreRestrictive) {
  // Raising rho_t shrinks the schedulable region (Section V-C: a larger
  // rho_t means more reliable but lower capacity).
  const auto& w = shared_world(3);
  int loose_ok = 0;
  int strict_ok = 0;
  for (std::uint64_t seed = 200; seed < 215; ++seed) {
    const auto set = make_workload(w, 35, seed);
    loose_ok += core::schedule_flows(set.flows, w.reuse_hops,
                                     core::make_config(core::algorithm::rc, 3, 2))
                    .schedulable
                    ? 1
                    : 0;
    strict_ok +=
        core::schedule_flows(set.flows, w.reuse_hops,
                             core::make_config(core::algorithm::rc, 3, 4))
            .schedulable
            ? 1
            : 0;
  }
  EXPECT_GE(loose_ok, strict_ok);
}

TEST(SchedulabilityDominance, MoreFlowsNeverRaiseScheduleOdds) {
  // Adding flows to the same environment can only lower the fraction of
  // schedulable sets.
  const auto& w = shared_world(4);
  auto count_ok = [&](int flows) {
    int ok = 0;
    for (std::uint64_t seed = 300; seed < 312; ++seed) {
      const auto set = make_workload(w, flows, seed);
      ok += core::schedule_flows(set.flows, w.reuse_hops,
                                 core::make_config(core::algorithm::nr, 4))
                .schedulable
                ? 1
                : 0;
    }
    return ok;
  };
  EXPECT_GE(count_ok(10), count_ok(60));
}

}  // namespace
}  // namespace wsan
