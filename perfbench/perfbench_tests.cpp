// The benchmark's own tests: the tail-percentile rule, and that every
// output check fails on a corrupted input.
#include <gtest/gtest.h>

#include <limits>

#include "bench_common.h"
#include "checks.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "stats.h"

namespace {

using namespace perfbench;
using namespace wsan;

TEST(TailRule, PicksTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_tail_permille(19), 0);
  EXPECT_EQ(highest_tail_permille(20), 500);
  EXPECT_EQ(highest_tail_permille(99), 500);
  EXPECT_EQ(highest_tail_permille(100), 900);  // 10 beyond p90
  EXPECT_EQ(highest_tail_permille(999), 900);  // only 9 beyond p99
  EXPECT_EQ(highest_tail_permille(1000), 990);
  EXPECT_EQ(highest_tail_permille(9999), 990);
  EXPECT_EQ(highest_tail_permille(10000), 999);
  EXPECT_EQ(highest_tail_permille(1000000), 999);
}

TEST(TailRule, CountsSamplesBeyondTheNearestRank) {
  EXPECT_EQ(samples_beyond(100, 900), 10u);
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);
  EXPECT_EQ(samples_beyond(101, 900), 10u);  // rank ceil(90.9) = 91
}

TEST(TailRule, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 500), 50.0);
  EXPECT_EQ(percentile(v, 900), 90.0);
  EXPECT_EQ(percentile(v, 990), 99.0);
  EXPECT_EQ(percentile({7.0}, 990), 7.0);
  EXPECT_EQ(percentile({}, 500), 0.0);
}

/// A small reuse-heavy RC schedule on WUSTL, shared by the check tests.
struct fixture {
  bench::experiment_env env = bench::make_env("wustl", 2);
  std::vector<flow::flow> flows;
  core::schedule_result rc;

  fixture() {
    flow::flow_set_params fsp;
    fsp.num_flows = 30;
    fsp.period_min_exp = -1;
    fsp.period_max_exp = 0;
    for (std::uint64_t s = 0; s < 64; ++s) {
      rng gen(derive_seed(7, 0, s));
      flows = flow::generate_flow_set(env.comm, fsp, gen).flows;
      rc = core::schedule_flows(flows, env.reuse_hops,
                                core::make_config(core::algorithm::rc, 2));
      if (rc.schedulable && shared_placements(rc.sched) > 0) return;
    }
    ADD_FAILURE() << "no reuse-heavy RC schedule found";
  }
};

const fixture& shared_fixture() {
  static const fixture f;
  return f;
}

/// Rebuilds `sched` with placement `moved` put in `slot`.
tsch::schedule with_moved(const tsch::schedule& sched, std::size_t moved,
                          slot_t slot) {
  tsch::schedule out(sched.num_slots(), sched.num_offsets());
  const auto& ps = sched.placements();
  for (std::size_t i = 0; i < ps.size(); ++i)
    out.add(ps[i].tx, i == moved ? slot : ps[i].slot, ps[i].offset);
  return out;
}

TEST(Checks, ValidScheduleAndPlacementsPass) {
  const auto& f = shared_fixture();
  EXPECT_EQ(check_schedule(f.rc.sched, f.flows, f.env.reuse_hops,
                           core::algorithm::rc, 2),
            "");
  EXPECT_EQ(check_same_placements(f.rc.sched, f.rc.sched), "");
  // The same schedule breaks NR's no-sharing rule.
  EXPECT_NE(check_schedule(f.rc.sched, f.flows, f.env.reuse_hops,
                           core::algorithm::nr, 2),
            "");
}

TEST(Checks, PlacementMovedIntoConflictingSlotFails) {
  const auto& f = shared_fixture();
  const auto& ps = f.rc.sched.placements();
  // Move a placement into the slot of another placement that shares a
  // node with it: a transmission conflict.
  std::size_t moved = ps.size();
  slot_t target = 0;
  for (std::size_t i = 0; i < ps.size() && moved == ps.size(); ++i)
    for (std::size_t j = 0; j < ps.size(); ++j) {
      const auto& a = ps[i].tx;
      const auto& b = ps[j].tx;
      if (i != j && ps[i].slot != ps[j].slot &&
          (a.sender == b.sender || a.sender == b.receiver ||
           a.receiver == b.sender || a.receiver == b.receiver)) {
        moved = i;
        target = ps[j].slot;
        break;
      }
    }
  ASSERT_LT(moved, ps.size());
  const auto corrupted = with_moved(f.rc.sched, moved, target);
  EXPECT_NE(check_schedule(corrupted, f.flows, f.env.reuse_hops,
                           core::algorithm::rc, 2),
            "");
  EXPECT_NE(check_same_placements(corrupted, f.rc.sched), "");
}

TEST(Checks, FlippedDigestBitFails) {
  const std::uint64_t digest = 0x1234'5678'9abc'def0ULL;
  EXPECT_EQ(check_digest("fleet", digest, digest), "");
  for (int bit : {0, 17, 63})
    EXPECT_NE(check_digest("fleet", digest ^ (1ULL << bit), digest), "");
}

TEST(Checks, OutOfRangePdrFails) {
  EXPECT_EQ(check_pdr_range({0.0, 0.5, 1.0}), "");
  EXPECT_NE(check_pdr_range({0.9, 1.0000001}), "");
  EXPECT_NE(check_pdr_range({-0.1}), "");
  EXPECT_NE(check_pdr_range({std::numeric_limits<double>::quiet_NaN()}),
            "");
  EXPECT_EQ(check_mean_pdr("rc", 0.93, 0.8, 1.0), "");
  EXPECT_NE(check_mean_pdr("rc", 0.5, 0.8, 1.0), "");
}

TEST(PathGuard, RefusesAMissedPath) {
  EXPECT_TRUE(path_guard({true, true, 0.5, 0.3}).empty());
  EXPECT_EQ(path_guard({true, true, 0.0, 0.3}).size(), 1u);
  EXPECT_EQ(path_guard({true, true, 0.5, 0.0}).size(), 1u);
  EXPECT_TRUE(path_guard({true, false, 0.5, 0.0}).empty());
  EXPECT_TRUE(path_guard({false, true, 0.0, 0.0}).empty());
  EXPECT_TRUE(path_guard({false, true, 5e-5, 0.0}).empty());
  EXPECT_EQ(path_guard({false, true, 0.01, 0.0}).size(), 1u);
}

}  // namespace
