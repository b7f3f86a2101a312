#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exhaustive.h"
#include "core/scheduler.h"
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

TEST(Exhaustive, TrivialFlowIsFeasibleWithValidWitness) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}, {1, 2}}, 20, 20);
  const auto result = exhaustive_search({f}, hops, 2);
  EXPECT_EQ(result.verdict, feasibility::feasible);
  const auto validation = tsch::validate_schedule(result.sched, {f}, hops);
  EXPECT_TRUE(validation.ok)
      << (validation.violations.empty() ? ""
                                        : validation.violations.front());
}

TEST(Exhaustive, ImpossibleDeadlineIsInfeasible) {
  const auto hops = path_hops(4);
  // 2 attempts cannot fit into a 1-slot window.
  const auto f = make_flow(0, {{0, 1}}, 10, 1);
  const auto result = exhaustive_search({f}, hops, 4);
  EXPECT_EQ(result.verdict, feasibility::infeasible);
}

TEST(Exhaustive, FindsSchedulesGreedyPriorityOrderMisses) {
  // One channel, no reuse possible within rho: F0 (loose deadline) is
  // scheduled first by the greedy NR policy and grabs slots 0-1,
  // leaving tight F1 stranded. A feasible schedule exists (F1 first).
  const auto hops = path_hops(4);
  const auto f0 = make_flow(0, {{0, 1}}, 10, 10);
  const auto f1 = make_flow(1, {{2, 3}}, 10, 2);

  auto nr = make_config(algorithm::nr, 1);
  EXPECT_FALSE(schedule_flows({f0, f1}, hops, nr).schedulable);

  exhaustive_options opts;
  opts.rho_t = k_infinite_hops;  // forbid reuse: pure slot juggling
  const auto result = exhaustive_search({f0, f1}, hops, 1, opts);
  EXPECT_EQ(result.verdict, feasibility::feasible);
  tsch::validation_options vopts;
  vopts.min_reuse_hops = k_infinite_hops;
  EXPECT_TRUE(
      tsch::validate_schedule(result.sched, {f0, f1}, hops, vopts).ok);
}

TEST(Exhaustive, ReuseEnlargesTheFeasibleRegion) {
  // Two distant flows, one channel, two-slot deadlines: infeasible
  // without reuse, feasible with it (cf. the scheduler test).
  const auto hops = path_hops(10);
  const auto f0 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f1 = make_flow(1, {{8, 9}}, 10, 2);

  exhaustive_options no_reuse;
  no_reuse.rho_t = k_infinite_hops;
  EXPECT_EQ(exhaustive_search({f0, f1}, hops, 1, no_reuse).verdict,
            feasibility::infeasible);

  exhaustive_options with_reuse;
  with_reuse.rho_t = 2;
  EXPECT_EQ(exhaustive_search({f0, f1}, hops, 1, with_reuse).verdict,
            feasibility::feasible);
}

TEST(Exhaustive, BudgetExhaustionReturnsUnknown) {
  const auto hops = path_hops(12);
  std::vector<flow::flow> flows;
  for (int i = 0; i < 5; ++i) {
    flows.push_back(make_flow(static_cast<flow_id>(i),
                              {{static_cast<node_id>(2 * i),
                                static_cast<node_id>(2 * i + 1)}},
                              50, 10));
  }
  // Make it genuinely infeasible so the search would have to exhaust a
  // large tree: 5 x 2 attempts into a 10-slot window on 1 channel with
  // reuse mostly forbidden by proximity... then starve the budget.
  exhaustive_options opts;
  opts.rho_t = k_infinite_hops;
  opts.node_budget = 3;
  const auto result = exhaustive_search(flows, hops, 1, opts);
  EXPECT_EQ(result.verdict, feasibility::unknown);
  EXPECT_LE(result.nodes_explored, 4);
}

TEST(Exhaustive, MultiInstanceWindowsAreRespected) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}}, 10, 4);
  const auto result = exhaustive_search({f}, hops, 1);  // hp 10, 1 inst
  EXPECT_EQ(result.verdict, feasibility::feasible);
  for (const auto& p : result.sched.placements()) {
    EXPECT_GE(p.slot, f.release_slot(p.tx.instance));
    EXPECT_LE(p.slot, f.deadline_slot(p.tx.instance));
  }
}

TEST(Exhaustive, AgreesWithGreedySchedulersOnRandomWorkloads) {
  // Soundness both ways on small instances:
  //  - any greedy success implies a feasible instance;
  //  - exhaustive infeasibility implies every greedy scheduler fails.
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(2));

  int feasible_count = 0;
  int infeasible_count = 0;
  for (std::uint64_t seed = 600; seed < 630; ++seed) {
    flow::flow_set_params params;
    params.num_flows = 6;
    params.period_min_exp = -2;  // hyperperiod <= 50 slots
    params.period_max_exp = -1;
    rng gen(seed);
    const auto set = flow::generate_flow_set(view.comm, params, gen);

    exhaustive_options opts;
    opts.node_budget = 500'000;
    const auto exact = exhaustive_search(set.flows, view.reuse_hops, 2, opts);

    const bool rc = schedule_flows(set.flows, view.reuse_hops,
                                   make_config(algorithm::rc, 2))
                        .schedulable;
    const bool ra = schedule_flows(set.flows, view.reuse_hops,
                                   make_config(algorithm::ra, 2))
                        .schedulable;
    const bool nr = schedule_flows(set.flows, view.reuse_hops,
                                   make_config(algorithm::nr, 2))
                        .schedulable;

    if (exact.verdict == feasibility::feasible) ++feasible_count;
    if (exact.verdict == feasibility::infeasible) {
      ++infeasible_count;
      EXPECT_FALSE(rc) << "seed " << seed;
      EXPECT_FALSE(ra) << "seed " << seed;
      EXPECT_FALSE(nr) << "seed " << seed;
    }
    if (rc || ra || nr) {
      EXPECT_NE(exact.verdict, feasibility::infeasible)
          << "seed " << seed;
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(feasible_count, 0);
}

}  // namespace
}  // namespace wsan::core
