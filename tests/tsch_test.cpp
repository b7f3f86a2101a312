#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/constraints.h"
#include "graph/hop_matrix.h"
#include "index_check.h"
#include "tsch/hopping.h"
#include "tsch/schedule.h"
#include "tsch/schedule_stats.h"
#include "tsch/transmission.h"
#include "tsch/validate.h"

namespace wsan::tsch {
namespace {

transmission make_tx(node_id sender, node_id receiver, flow_id f = 0,
                     int instance = 0, int link_index = 0, int attempt = 0) {
  transmission tx;
  tx.flow = f;
  tx.instance = instance;
  tx.link_index = link_index;
  tx.attempt = attempt;
  tx.sender = sender;
  tx.receiver = receiver;
  return tx;
}

// ------------------------------------------------------- transmission --

TEST(Transmission, ConflictRequiresSharedNode) {
  const auto a = make_tx(0, 1);
  EXPECT_TRUE(a.conflicts_with(make_tx(1, 2)));   // shares node 1
  EXPECT_TRUE(a.conflicts_with(make_tx(2, 0)));   // shares node 0
  EXPECT_TRUE(a.conflicts_with(make_tx(0, 1)));   // identical
  EXPECT_TRUE(a.conflicts_with(make_tx(1, 0)));   // reversed
  EXPECT_FALSE(a.conflicts_with(make_tx(2, 3)));  // disjoint
}

// ----------------------------------------------------------- schedule --

TEST(Schedule, StoresAndRetrievesPlacements) {
  schedule s(10, 3);
  const auto tx = make_tx(0, 1);
  s.add(tx, 4, 2);
  EXPECT_EQ(s.cell(4, 2).size(), 1u);
  EXPECT_EQ(s.cell(4, 1).size(), 0u);
  EXPECT_EQ(s.slot_load(4), 1);
  EXPECT_EQ(s.slot_load(5), 0);
  EXPECT_EQ(s.num_transmissions(), 1u);
  EXPECT_EQ(s.placements().front().slot, 4);
  EXPECT_EQ(s.placements().front().offset, 2);
}

TEST(Schedule, MultipleTransmissionsPerCell) {
  schedule s(5, 2);
  s.add(make_tx(0, 1), 1, 0);
  s.add(make_tx(4, 5), 1, 0);
  EXPECT_EQ(s.cell_load(1, 0), 2);
  EXPECT_EQ(s.slot_load(1), 2);
}

TEST(Schedule, BoundsAreChecked) {
  schedule s(5, 2);
  EXPECT_THROW(s.cell(5, 0), std::invalid_argument);
  EXPECT_THROW(s.cell(0, 2), std::invalid_argument);
  EXPECT_THROW(s.add(make_tx(0, 1), -1, 0), std::invalid_argument);
  EXPECT_THROW(schedule(0, 2), std::invalid_argument);
  EXPECT_THROW(schedule(5, 0), std::invalid_argument);
}

// ---------------------------------------------------- occupancy index --

TEST(Schedule, OccupancyIndexTracksBusyNodes) {
  schedule s(100, 2);
  s.add(make_tx(3, 7), 64, 1);  // word boundary of the per-node bitset
  EXPECT_TRUE(s.node_busy(3, 64));
  EXPECT_TRUE(s.node_busy(7, 64));
  EXPECT_FALSE(s.node_busy(3, 63));
  EXPECT_FALSE(s.node_busy(3, 65));
  EXPECT_FALSE(s.node_busy(5, 64));           // never scheduled
  EXPECT_EQ(s.node_busy_words(1000), nullptr);  // row never allocated
  ASSERT_NE(s.node_busy_words(3), nullptr);
  EXPECT_EQ(s.node_busy_words(3)[1], std::uint64_t{1});  // bit 64
}

TEST(Schedule, SlotConflictFreeMatchesTransmissionScan) {
  schedule s(10, 2);
  s.add(make_tx(1, 2), 4, 0);
  s.add(make_tx(8, 9), 4, 1);
  // Shares a node in slot 4 either way around, in either cell.
  EXPECT_FALSE(s.slot_conflict_free(make_tx(2, 3), 4));
  EXPECT_FALSE(s.slot_conflict_free(make_tx(0, 1), 4));
  EXPECT_FALSE(s.slot_conflict_free(make_tx(7, 8), 4));
  // Disjoint nodes or a different slot are fine.
  EXPECT_TRUE(s.slot_conflict_free(make_tx(5, 6), 4));
  EXPECT_TRUE(s.slot_conflict_free(make_tx(1, 2), 5));
  // The index answers what the reference scan of the slot's cells
  // answers.
  for (node_id u = 0; u < 10; ++u)
    for (node_id v = 0; v < 10; ++v)
      for (const slot_t slot : {3, 4, 5})
        EXPECT_EQ(s.slot_conflict_free(make_tx(u, v), slot),
                  core::conflict_free(make_tx(u, v), s, slot))
            << u << "->" << v << " slot " << slot;
}

TEST(Schedule, CellLoadMatchesCellSize) {
  schedule s(5, 2);
  s.add(make_tx(0, 1), 1, 0);
  s.add(make_tx(4, 5), 1, 0);
  s.add(make_tx(7, 8), 1, 1);
  expect_index_consistent(s);
}

TEST(Schedule, FullSlotBitTracksEveryOffset) {
  schedule s(130, 3);
  // Slots 63 and 64 straddle a bitset word boundary; 129 is the last.
  for (const slot_t slot : {63, 64, 129}) {
    s.add(make_tx(0, 1, /*f=*/0), slot, 0);
    s.add(make_tx(2, 3, /*f=*/1), slot, 2);
    EXPECT_FALSE(s.slot_full(slot));  // offset 1 still empty
    s.add(make_tx(4, 5, /*f=*/2), slot, 1);
    EXPECT_TRUE(s.slot_full(slot));
    s.add(make_tx(6, 7, /*f=*/3), slot, 1);  // reuse keeps it full
    EXPECT_TRUE(s.slot_full(slot));
  }
  EXPECT_FALSE(s.slot_full(62));
  EXPECT_FALSE(s.slot_full(65));
  ASSERT_NE(s.full_slot_words(), nullptr);
  EXPECT_EQ(s.full_slot_words()[0], std::uint64_t{1} << 63);
  EXPECT_EQ(s.full_slot_words()[1], std::uint64_t{1});
  EXPECT_EQ(s.full_slot_words()[2], std::uint64_t{2});
  expect_index_consistent(s);

  // Flow 3 shared offset 1 with flow 2: its removal keeps every cell
  // occupied. Removing flow 2 too empties offset 1.
  s.remove_flows_from(3);
  for (const slot_t slot : {63, 64, 129}) EXPECT_TRUE(s.slot_full(slot));
  expect_index_consistent(s);
  s.remove_flows_from(2);
  for (const slot_t slot : {63, 64, 129}) EXPECT_FALSE(s.slot_full(slot));
  expect_index_consistent(s);
  // Refilling the emptied cell marks the slot full again.
  s.add(make_tx(4, 5, /*f=*/2), 64, 1);
  EXPECT_TRUE(s.slot_full(64));
  expect_index_consistent(s);
}

// -------------------------------------------------- remove_flows_from --

TEST(Schedule, RemoveFlowsFromFreesCellsAndCounts) {
  schedule s(10, 2);
  s.add(make_tx(0, 1, /*f=*/0), 0, 0);
  s.add(make_tx(2, 3, /*f=*/1), 0, 0);  // shares the cell with flow 0
  s.add(make_tx(6, 7, /*f=*/0), 2, 0);
  s.add(make_tx(1, 2, /*f=*/2), 1, 1);
  s.add(make_tx(4, 5, /*f=*/0), 3, 1);

  EXPECT_EQ(s.remove_flows_from(1), 2u);
  EXPECT_EQ(s.num_transmissions(), 3u);
  // Flow 0's placements survive, in their original relative order.
  ASSERT_EQ(s.placements().size(), 3u);
  for (const auto& p : s.placements()) EXPECT_EQ(p.tx.flow, 0);
  EXPECT_EQ(s.placements()[0].slot, 0);
  EXPECT_EQ(s.placements()[1].slot, 2);
  EXPECT_EQ(s.placements()[2].slot, 3);
  // The shared cell keeps its survivor's load; freed cells are empty.
  EXPECT_EQ(s.cell_load(0, 0), 1);
  EXPECT_EQ(s.cell(0, 0).front().flow, 0);
  EXPECT_EQ(s.cell_load(1, 1), 0);
  EXPECT_EQ(s.slot_load(1), 0);
  expect_index_consistent(s);
  // Removing from an id above every flow is a no-op.
  const auto before = s.placements();
  EXPECT_EQ(s.remove_flows_from(1), 0u);
  EXPECT_EQ(s.remove_flows_from(7), 0u);
  EXPECT_EQ(s.placements(), before);
}

TEST(Schedule, RemoveFlowsFromClearsBusyBitsButKeepsSharedSlots) {
  schedule s(10, 2);
  s.add(make_tx(2, 3, /*f=*/0), 4, 1);  // flow 0 also busy in slot 4
  s.add(make_tx(0, 1, /*f=*/1), 4, 0);
  // Shares node 3 with flow 0 in slot 4: a conflict only add() allows,
  // so clearing its endpoints must not free the survivor's node.
  s.add(make_tx(3, 7, /*f=*/2), 4, 0);
  s.add(make_tx(1, 2, /*f=*/1), 6, 0);
  s.add(make_tx(5, 6, /*f=*/2), 6, 1);
  ASSERT_TRUE(s.slot_full(4));
  ASSERT_TRUE(s.slot_full(6));

  ASSERT_EQ(s.remove_flows_from(1), 4u);
  // The removed endpoints are free again everywhere...
  EXPECT_FALSE(s.node_busy(0, 4));
  EXPECT_FALSE(s.node_busy(1, 4));
  EXPECT_FALSE(s.node_busy(7, 4));
  EXPECT_FALSE(s.node_busy(1, 6));
  EXPECT_FALSE(s.node_busy(2, 6));
  EXPECT_FALSE(s.node_busy(5, 6));
  EXPECT_FALSE(s.node_busy(6, 6));
  // ...but flow 0's occupancy in the shared slot is retained.
  EXPECT_TRUE(s.node_busy(2, 4));
  EXPECT_TRUE(s.node_busy(3, 4));
  EXPECT_TRUE(s.slot_conflict_free(make_tx(0, 1), 4));
  EXPECT_FALSE(s.slot_conflict_free(make_tx(3, 5), 4));
  // Offset 0 of slot 4 emptied, so the slot is no longer full.
  EXPECT_FALSE(s.slot_full(4));
  expect_index_consistent(s);
}

TEST(Schedule, CellNodeMasksGrowAndFollowRemovals) {
  schedule s(70, 2);
  EXPECT_EQ(s.node_mask_words(), 0u);
  s.add(make_tx(3, 5, /*f=*/0), 64, 0);
  s.add(make_tx(9, 12, /*f=*/1), 64, 0);  // shares the cell with flow 0
  EXPECT_EQ(s.node_mask_words(), 1u);
  EXPECT_EQ(s.cell_senders(64, 0)[0], (std::uint64_t{1} << 3) | (1u << 9));
  EXPECT_EQ(s.cell_receivers(64, 0)[0],
            (std::uint64_t{1} << 5) | (1u << 12));
  // A node id past the first word widens every cell's masks and keeps
  // the bits already set.
  s.add(make_tx(70, 1, /*f=*/2), 64, 1);
  s.add(make_tx(2, 130, /*f=*/2), 69, 1);
  EXPECT_EQ(s.node_mask_words(), 3u);
  EXPECT_EQ(s.cell_senders(64, 0)[0], (std::uint64_t{1} << 3) | (1u << 9));
  EXPECT_EQ(s.cell_senders(64, 1)[1], std::uint64_t{1} << 6);
  EXPECT_EQ(s.cell_receivers(69, 1)[2], std::uint64_t{1} << 2);
  expect_index_consistent(s);
  // Removing flow 1 and up rebuilds the shared cell from its survivor
  // and empties the others.
  s.remove_flows_from(1);
  EXPECT_EQ(s.cell_senders(64, 0)[0], std::uint64_t{1} << 3);
  EXPECT_EQ(s.cell_receivers(64, 0)[0], std::uint64_t{1} << 5);
  EXPECT_EQ(s.cell_senders(64, 1)[1], 0u);
  EXPECT_EQ(s.cell_receivers(69, 1)[2], 0u);
  expect_index_consistent(s);
}

TEST(Schedule, RemoveFlowsFromKeepsSurvivorsInCellOrder) {
  // Survivors above the first removed placement are re-added in
  // placement order, so a cell keeps its survivors in their old
  // relative order, and so does placements().
  schedule s(4, 1);
  s.add(make_tx(0, 1, /*f=*/2), 0, 0);  // the first removed placement
  s.add(make_tx(2, 3, /*f=*/0), 0, 0);
  s.add(make_tx(4, 5, /*f=*/1), 1, 0);
  s.add(make_tx(6, 7, /*f=*/1), 0, 0);
  s.add(make_tx(8, 9, /*f=*/3), 0, 0);
  s.add(make_tx(10, 11, /*f=*/0), 0, 0);

  ASSERT_EQ(s.remove_flows_from(2), 2u);
  std::vector<node_id> cell_senders;
  for (const auto& tx : s.cell(0, 0)) cell_senders.push_back(tx.sender);
  EXPECT_EQ(cell_senders, (std::vector<node_id>{2, 6, 10}));
  std::vector<node_id> placed_senders;
  for (const auto& p : s.placements()) placed_senders.push_back(p.tx.sender);
  EXPECT_EQ(placed_senders, (std::vector<node_id>{2, 4, 6, 10}));
  expect_index_consistent(s);
}

TEST(Schedule, RandomAddRemoveHistoryKeepsIndexConsistent) {
  // add() checks no constraint, so a random history stacks transmissions
  // that share nodes across the cells of a slot: each removal must keep
  // a node busy exactly while a survivor in some cell of the slot uses
  // it. Few nodes, slots and flows make such survivors common.
  rng gen(23);
  schedule s(6, 3);
  for (int round = 0; round < 60; ++round) {
    for (int i = gen.uniform_int(1, 8); i > 0; --i) {
      const auto u = static_cast<node_id>(gen.uniform_int(0, 5));
      const auto v = static_cast<node_id>((u + gen.uniform_int(1, 5)) % 6);
      s.add(make_tx(u, v, static_cast<flow_id>(gen.uniform_int(0, 9))),
            static_cast<slot_t>(gen.uniform_int(0, 5)),
            static_cast<offset_t>(gen.uniform_int(0, 2)));
    }
    s.remove_flows_from(static_cast<flow_id>(gen.uniform_int(0, 9)));
    expect_index_consistent(s);
  }
}

// ------------------------------------------------------------ hopping --

TEST(Hopping, FollowsTheStandardFormula) {
  // logicalChannel = (ASN + offset) mod |M|
  EXPECT_EQ(logical_channel(0, 0, 4), 0);
  EXPECT_EQ(logical_channel(5, 2, 4), 3);
  EXPECT_EQ(logical_channel(6, 2, 4), 0);
}

TEST(Hopping, MapsLogicalToPhysical) {
  const std::vector<channel_t> list{11, 12, 13, 14};
  EXPECT_EQ(physical_channel(0, 0, list), 11);
  EXPECT_EQ(physical_channel(1, 0, list), 12);
  EXPECT_EQ(physical_channel(3, 3, list), 13);  // (3+3)%4=2 -> 13
}

TEST(Hopping, CellCyclesThroughAllChannels) {
  const std::vector<channel_t> list{11, 12, 13};
  std::set<channel_t> seen;
  for (asn_t asn = 0; asn < 3; ++asn)
    seen.insert(physical_channel(asn, 1, list));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Hopping, RejectsBadInputs) {
  EXPECT_THROW(logical_channel(-1, 0, 4), std::invalid_argument);
  EXPECT_THROW(logical_channel(0, 4, 4), std::invalid_argument);
  EXPECT_THROW(logical_channel(0, 0, 0), std::invalid_argument);
}

// ----------------------------------------------------- schedule stats --

TEST(ScheduleStats, TxPerChannelCountsOccupiedCells) {
  schedule s(4, 2);
  s.add(make_tx(0, 1), 0, 0);
  s.add(make_tx(2, 3), 0, 1);
  s.add(make_tx(4, 5), 1, 0);
  s.add(make_tx(6, 7), 1, 0);
  const auto hist = tx_per_channel_histogram(s);
  EXPECT_EQ(hist.count(1), 2u);  // two cells with a single transmission
  EXPECT_EQ(hist.count(2), 1u);  // one reusing cell
  EXPECT_EQ(hist.total(), 3u);   // empty cells are not counted
}

TEST(ScheduleStats, ReuseHopCountUsesSenderReceiverPairs) {
  // Path graph 0-1-2-3-4-5: hop(0,5)=5 etc.
  graph::graph g(6);
  for (int i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1);
  const graph::hop_matrix hm(g);

  schedule s(2, 1);
  s.add(make_tx(0, 1), 0, 0);
  s.add(make_tx(4, 5), 0, 0);
  const auto hist = reuse_hop_count_histogram(s, hm);
  // min(hop(0,5), hop(4,1)) = min(5, 3) = 3.
  EXPECT_EQ(hist.total(), 1u);
  EXPECT_EQ(hist.count(3), 1u);
}

TEST(ScheduleStats, NonReusingScheduleHasEmptyHopHistogram) {
  graph::graph g(4);
  g.add_edge(0, 1);
  const graph::hop_matrix hm(g);
  schedule s(2, 2);
  s.add(make_tx(0, 1), 0, 0);
  s.add(make_tx(2, 3), 0, 1);
  EXPECT_TRUE(reuse_hop_count_histogram(s, hm).empty());
  EXPECT_EQ(reusing_cell_count(s), 0u);
}

TEST(ScheduleStats, LinksInReuseCountsDistinctLinks) {
  schedule s(3, 1);
  s.add(make_tx(0, 1), 0, 0);
  s.add(make_tx(4, 5), 0, 0);
  s.add(make_tx(0, 1), 1, 0);  // same link again, reused with another
  s.add(make_tx(6, 7), 1, 0);
  s.add(make_tx(8, 9), 2, 0);  // alone: not associated with reuse
  EXPECT_EQ(links_in_reuse_count(s), 3u);  // {0->1, 4->5, 6->7}
  EXPECT_EQ(reusing_cell_count(s), 2u);
}

TEST(ScheduleStats, OccupancyCountsCellsAndSlots) {
  schedule s(10, 2);  // 20 cells
  s.add(make_tx(0, 1), 0, 0);
  s.add(make_tx(4, 5), 0, 0);  // same cell
  s.add(make_tx(2, 3), 0, 1);
  s.add(make_tx(6, 7), 5, 0);
  const auto stats = occupancy(s);
  EXPECT_EQ(stats.total_cells, 20u);
  EXPECT_EQ(stats.occupied_cells, 3u);
  EXPECT_EQ(stats.busy_slots, 2u);
  EXPECT_EQ(stats.transmissions, 4u);
  EXPECT_DOUBLE_EQ(stats.cell_utilization(), 3.0 / 20.0);
  EXPECT_DOUBLE_EQ(stats.mean_tx_per_slot(10), 0.4);
}

TEST(ScheduleStats, OccupancyOfEmptySchedule) {
  schedule s(4, 4);
  const auto stats = occupancy(s);
  EXPECT_EQ(stats.occupied_cells, 0u);
  EXPECT_DOUBLE_EQ(stats.cell_utilization(), 0.0);
}

// ----------------------------------------------------------- validate --

class ValidateTest : public ::testing::Test {
 protected:
  ValidateTest() : hops_(make_hops()) {}

  static graph::hop_matrix make_hops() {
    // Path 0-1-2-3-4-5.
    graph::graph g(6);
    for (int i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1);
    return graph::hop_matrix(g);
  }

  static flow::flow make_flow() {
    flow::flow f;
    f.id = 0;
    f.source = 0;
    f.destination = 2;
    f.period = 20;
    f.deadline = 20;
    f.route = {flow::link{0, 1}, flow::link{1, 2}};
    f.uplink_links = 2;
    return f;
  }

  graph::hop_matrix hops_;
};

TEST_F(ValidateTest, AcceptsAWellFormedSchedule) {
  const auto f = make_flow();
  schedule s(20, 2);
  // link 0 (0->1): attempts at slots 0,1; link 1 (1->2): slots 2,3.
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 1), 1, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 0), 2, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 1), 3, 0);
  const auto result = validate_schedule(s, {f}, hops_);
  EXPECT_TRUE(result.ok) << (result.violations.empty()
                                 ? ""
                                 : result.violations.front());
}

TEST_F(ValidateTest, DetectsMissingTransmissions) {
  const auto f = make_flow();
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  const auto result = validate_schedule(s, {f}, hops_);
  EXPECT_FALSE(result.ok);
}

TEST_F(ValidateTest, DetectsConflictsInSlot) {
  const auto f = make_flow();
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 1), 0, 1);  // same node pair, same slot
  s.add(make_tx(1, 2, 0, 0, 1, 0), 2, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 1), 3, 0);
  const auto result = validate_schedule(s, {f}, hops_);
  EXPECT_FALSE(result.ok);
}

TEST_F(ValidateTest, DetectsOrderingViolations) {
  const auto f = make_flow();
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 5, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 1), 6, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 0), 4, 0);  // before its predecessor
  s.add(make_tx(1, 2, 0, 0, 1, 1), 7, 0);
  const auto result = validate_schedule(s, {f}, hops_);
  EXPECT_FALSE(result.ok);
}

TEST_F(ValidateTest, DetectsReuseWhenForbidden) {
  auto f = make_flow();
  f.route = {flow::link{0, 1}};
  f.uplink_links = 1;
  auto f2 = f;
  f2.id = 1;
  f2.source = 4;
  f2.destination = 5;
  f2.route = {flow::link{4, 5}};

  schedule s(20, 1);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(4, 5, 1, 0, 0, 0), 0, 0);  // shares the cell
  s.add(make_tx(0, 1, 0, 0, 0, 1), 1, 0);
  s.add(make_tx(4, 5, 1, 0, 0, 1), 1, 0);

  validation_options forbid;
  forbid.min_reuse_hops = k_infinite_hops;
  EXPECT_FALSE(validate_schedule(s, {f, f2}, hops_, forbid).ok);

  validation_options allow;
  allow.min_reuse_hops = 3;  // hop(0,5)=5, hop(4,1)=3 -> ok at rho=3
  EXPECT_TRUE(validate_schedule(s, {f, f2}, hops_, allow).ok);

  validation_options strict;
  strict.min_reuse_hops = 4;  // hop(4,1)=3 < 4 -> violation
  EXPECT_FALSE(validate_schedule(s, {f, f2}, hops_, strict).ok);
}

TEST_F(ValidateTest, DetectsDeadlineViolations) {
  auto f = make_flow();
  f.deadline = 3;  // only slots 0..2 usable
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 1), 1, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 0), 2, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 1), 3, 0);  // past deadline slot 2
  EXPECT_FALSE(validate_schedule(s, {f}, hops_).ok);
}

TEST_F(ValidateTest, DetectsDuplicatePlacements) {
  const auto f = make_flow();
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 4, 0);  // same attempt twice
  s.add(make_tx(0, 1, 0, 0, 0, 1), 1, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 0), 2, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 1), 3, 0);
  EXPECT_FALSE(validate_schedule(s, {f}, hops_).ok);
}

TEST_F(ValidateTest, DetectsUnknownFlows) {
  const auto f = make_flow();
  schedule s(20, 2);
  s.add(make_tx(0, 1, 0, 0, 0, 0), 0, 0);
  s.add(make_tx(0, 1, 0, 0, 0, 1), 1, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 0), 2, 0);
  s.add(make_tx(1, 2, 0, 0, 1, 1), 3, 0);
  s.add(make_tx(3, 4, 9, 0, 0, 0), 5, 0);  // flow 9 does not exist
  EXPECT_FALSE(validate_schedule(s, {f}, hops_).ok);
}

}  // namespace
}  // namespace wsan::tsch
