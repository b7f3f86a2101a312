#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"
#include "tsch/diff.h"

namespace wsan::tsch {
namespace {

transmission make_tx(flow_id f, int instance, int link_index, int attempt,
                     node_id s, node_id r) {
  transmission tx;
  tx.flow = f;
  tx.instance = instance;
  tx.link_index = link_index;
  tx.attempt = attempt;
  tx.sender = s;
  tx.receiver = r;
  return tx;
}

TEST(Diff, IdenticalSchedulesDiffEmpty) {
  schedule a(10, 2);
  a.add(make_tx(0, 0, 0, 0, 1, 2), 0, 0);
  a.add(make_tx(0, 0, 0, 1, 1, 2), 1, 1);
  const auto diff = diff_schedules(a, a);
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.unchanged, 2u);
}

TEST(Diff, DetectsMovesAddsAndRemoves) {
  schedule before(10, 2);
  before.add(make_tx(0, 0, 0, 0, 1, 2), 0, 0);  // will move
  before.add(make_tx(0, 0, 0, 1, 1, 2), 1, 0);  // unchanged
  before.add(make_tx(1, 0, 0, 0, 3, 4), 2, 0);  // will be removed

  schedule after(10, 2);
  after.add(make_tx(0, 0, 0, 0, 1, 2), 5, 1);   // moved
  after.add(make_tx(0, 0, 0, 1, 1, 2), 1, 0);   // unchanged
  after.add(make_tx(2, 0, 0, 0, 5, 6), 3, 0);   // added

  const auto diff = diff_schedules(before, after);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.unchanged, 1u);
  ASSERT_EQ(diff.moved.size(), 1u);
  EXPECT_EQ(diff.moved[0].old_slot, 0);
  EXPECT_EQ(diff.moved[0].new_slot, 5);
  EXPECT_EQ(diff.moved[0].new_offset, 1);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].tx.flow, 2);
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0].tx.flow, 1);

  const auto text = render_diff(diff);
  EXPECT_NE(text.find("1 moved"), std::string::npos);
  EXPECT_NE(text.find("1 added"), std::string::npos);
  EXPECT_NE(text.find("1 removed"), std::string::npos);
}

TEST(Diff, DuplicateIdentitiesAreRejected) {
  schedule bad(10, 2);
  bad.add(make_tx(0, 0, 0, 0, 1, 2), 0, 0);
  bad.add(make_tx(0, 0, 0, 0, 1, 2), 5, 0);
  schedule ok(10, 2);
  EXPECT_THROW(diff_schedules(bad, ok), std::invalid_argument);
}

TEST(Diff, RescheduleDiffShowsReuseReduction) {
  // The realistic use: diff a schedule against its repaired version.
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));
  flow::flow_set_params params;
  params.num_flows = 30;
  params.period_min_exp = -1;
  params.period_max_exp = 0;
  rng gen(83);
  const auto set = flow::generate_flow_set(view.comm, params, gen);
  auto config = core::make_config(core::algorithm::ra, 4);
  const auto before =
      core::schedule_flows(set.flows, view.reuse_hops, config);
  ASSERT_TRUE(before.schedulable);

  // Isolate one reused link and repair.
  std::set<std::pair<node_id, node_id>> degraded;
  for (slot_t s = 0; s < before.sched.num_slots() && degraded.empty();
       ++s) {
    for (offset_t c = 0; c < 4; ++c) {
      const auto& cell = before.sched.cell(s, c);
      if (cell.size() >= 2) {
        degraded.insert({cell.front().sender, cell.front().receiver});
        break;
      }
    }
  }
  ASSERT_FALSE(degraded.empty());
  config.isolated_links = degraded;
  const auto repaired =
      core::schedule_flows(set.flows, view.reuse_hops, config);
  if (!repaired.schedulable) return;

  const auto diff = diff_schedules(before.sched, repaired.sched);
  // Same transmission population (same flows), placements may move.
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(diff.unchanged + diff.moved.size(),
            before.sched.num_transmissions());
}

}  // namespace
}  // namespace wsan::tsch
