// Equivalence oracle for the simulator's fast engine: on real testbed
// workloads (WUSTL topology, generated flow sets, RC/RA schedules), the
// memoized allocation-free engine must produce a sim_result that is
// *bit-identical* — every flow PDR, every per-link observation stream,
// every energy figure — to the naive reference engine, across seeds,
// fault plans, external interference, and probe settings. The caches only
// memoize values drawn from derived RNGs (drift, fading); any divergence
// in the main RNG sample path or in accumulation order shows up here as
// an exact-inequality failure.
//
// This file also spot-checks the "allocation-free in steady state" claim
// with a counting global allocator: the fast engine's marginal
// allocations per additional run must be near zero, while the naive
// engine allocates per slot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <tuple>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "sim/interference.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"

// ------------------------------------------------- counting allocator --
// Program-wide operator new/delete replacement (this test is its own
// binary). Uses malloc/free so ASan/TSan interception still works, and
// relaxed atomics so the counter itself is data-race free.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The scalar replacements stay out of line. Inlined, GCC 12 sees the
// malloc inside operator new reach operator delete, or operator new's
// pointer reach the free inside operator delete, and raises
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must come
// from malloc too: the replaced deletes free every pointer.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wsan {
namespace {

struct world {
  topo::topology topology;
  std::vector<channel_t> channels;
  tsch::schedule sched;
  std::vector<flow::flow> flows;
};

/// One scheduled WUSTL workload per (algorithm, flow count), cached: the
/// expensive part of every parameterized case is identical.
const world& shared_world(core::algorithm algo, int flows) {
  static std::map<std::pair<int, int>, world> cache;
  const auto key = std::make_pair(static_cast<int>(algo), flows);
  auto it = cache.find(key);
  if (it == cache.end()) {
    world w;
    w.topology = topo::make_wustl();
    w.channels = phy::channels(4);
    const auto comm =
        graph::build_communication_graph(w.topology, w.channels);
    const auto reuse_hops = graph::hop_matrix(
        graph::build_channel_reuse_graph(w.topology, w.channels));
    flow::flow_set_params params;
    params.num_flows = flows;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 1;
    params.period_max_exp = 3;
    rng gen(977);
    auto set = flow::generate_flow_set(comm, params, gen);
    const auto result = core::schedule_flows(
        set.flows, reuse_hops, core::make_config(algo, 4));
    if (!result.schedulable)
      throw std::runtime_error("equivalence workload must be schedulable");
    w.sched = result.sched;
    w.flows = set.flows;
    cache.emplace(key, std::move(w));
    it = cache.find(key);
  }
  return it->second;
}

sim::fault_plan crash_and_suppress_plan(const world& w) {
  sim::fault_plan plan;
  // Crash a relay mid-experiment, fail one direction of a scheduled
  // link, suppress another sender's reports, and jam two busy slots —
  // all four fault kinds exercise distinct branches of the hot loop.
  const auto& placements = w.sched.placements();
  const auto& first = placements.front().tx;
  const auto& last = placements.back().tx;
  plan.crashes.push_back({first.sender, 5, 9});
  plan.link_failures.push_back({last.sender, last.receiver, 3, -1});
  plan.suppressions.push_back({first.receiver, 7, 11});
  plan.jams.push_back({placements.front().slot, 2, 8});
  plan.jams.push_back({placements.back().slot, 0, -1});
  return plan;
}

sim::sim_config base_config(std::uint64_t seed, int runs) {
  sim::sim_config config;
  config.runs = runs;
  config.seed = seed;
  // Defaults exercise every memo table: calibration drift, maintained
  // drift, intermittent pairs, and temporal fading are all non-zero.
  return config;
}

// Parameters: (seed, use_faults, use_interferers, probes_per_run).
class SimEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, int>> {};

TEST_P(SimEquivalence, FastAndNaiveResultsAreBitIdentical) {
  const auto [seed, use_faults, use_interferers, probes] = GetParam();

  for (const auto algo : {core::algorithm::rc, core::algorithm::ra}) {
    const auto& w = shared_world(algo, 20);
    auto config = base_config(static_cast<std::uint64_t>(seed), 12);
    config.probes_per_run = probes;
    if (use_faults) config.faults = crash_and_suppress_plan(w);
    if (use_interferers) {
      config.interferers = sim::one_interferer_per_floor(w.topology);
      config.interferer_start_run = 4;
    }

    config.use_fast_path = true;
    const auto fast =
        sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
    config.use_fast_path = false;
    const auto naive =
        sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);

    // Field-by-field first, for diagnosable failures.
    ASSERT_EQ(fast.flow_pdr, naive.flow_pdr)
        << core::to_string(algo) << " seed=" << seed;
    ASSERT_EQ(fast.instances_released, naive.instances_released);
    ASSERT_EQ(fast.instances_delivered, naive.instances_delivered);
    ASSERT_EQ(fast.energy.per_node_mj, naive.energy.per_node_mj);
    ASSERT_EQ(fast.energy.data_transmissions,
              naive.energy.data_transmissions);
    ASSERT_EQ(fast.energy.idle_listens, naive.energy.idle_listens);
    ASSERT_EQ(fast.energy.total_mj, naive.energy.total_mj);
    ASSERT_EQ(fast.links.size(), naive.links.size());
    for (const auto& [key, obs] : naive.links) {
      const auto fit = fast.links.find(key);
      ASSERT_NE(fit, fast.links.end())
          << "link " << key.sender << "->" << key.receiver
          << " missing from fast result";
      EXPECT_TRUE(fit->second == obs)
          << "link " << key.sender << "->" << key.receiver
          << " observations diverge (" << core::to_string(algo)
          << " seed=" << seed << ")";
    }
    // And the full structural equality — the actual oracle.
    EXPECT_TRUE(fast == naive)
        << core::to_string(algo) << " seed=" << seed
        << " faults=" << use_faults << " intf=" << use_interferers
        << " probes=" << probes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 908),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool, int>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_faults" : "_nofaults") +
             (std::get<2>(info.param) ? "_intf" : "_nointf") + "_probes" +
             std::to_string(std::get<3>(info.param));
    });

TEST(SimEquivalence, InterfererOnsetAndDriftZeroPathsMatch) {
  // Edge configs outside the parameter grid: all sigmas zero (the
  // drift_zero_ fast-out), and interferers that never switch on.
  const auto& w = shared_world(core::algorithm::rc, 20);
  auto config = base_config(55, 8);
  config.calibration_drift_sigma_db = 0.0;
  config.maintained_drift_sigma_db = 0.0;
  config.intermittent_fraction = 0.0;
  config.temporal_fading_sigma_db = 0.0;
  config.interferers = sim::one_interferer_per_floor(w.topology);
  config.interferer_start_run = 1000;  // never fires, draws still consumed

  config.use_fast_path = true;
  const auto fast =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  config.use_fast_path = false;
  const auto naive =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  EXPECT_TRUE(fast == naive);
}

// ------------------------------------------------ allocation behavior --

std::uint64_t allocations_during(const world& w,
                                 const sim::sim_config& config) {
  const auto before = g_allocations.load(std::memory_order_relaxed);
  const auto result =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  const auto after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(result.instances_released, 0);
  return after - before;
}

TEST(SimAllocations, FastEngineSlotLoopIsAllocationFree) {
  const auto& w = shared_world(core::algorithm::rc, 20);

  // Marginal allocations of extra runs: the naive engine allocates per
  // slot (scratch vectors, map nodes, derived-RNG lambdas returning
  // vectors), so doubling the runs roughly doubles its allocations. The
  // fast engine's slot loop reuses its buffers — the only per-run
  // allocations are the amortized growth of the per-run sample streams,
  // orders of magnitude below one per slot.
  auto short_config = base_config(7, 10);
  auto long_config = base_config(7, 30);

  short_config.use_fast_path = true;
  long_config.use_fast_path = true;
  const auto fast_short = allocations_during(w, short_config);
  const auto fast_long = allocations_during(w, long_config);
  const auto fast_marginal = fast_long - fast_short;

  short_config.use_fast_path = false;
  long_config.use_fast_path = false;
  const auto naive_short = allocations_during(w, short_config);
  const auto naive_long = allocations_during(w, long_config);
  const auto naive_marginal = naive_long - naive_short;

  // Naive: several allocations per occupied slot across 20 extra runs.
  EXPECT_GT(naive_marginal, 1000u);
  // Fast: the 20 extra runs cost only the amortized growth of the
  // per-run sample streams — a handful of allocations per run, zero per
  // slot, and a small fraction of the naive engine's appetite.
  EXPECT_LT(fast_marginal, 20u * 10u);
  EXPECT_LT(fast_marginal * 20, naive_marginal);
}

}  // namespace
}  // namespace wsan
