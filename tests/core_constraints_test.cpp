#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/constraints.h"
#include "core/laxity.h"
#include "core/slot_finder.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"

namespace wsan::core {
namespace {

tsch::transmission make_tx(node_id sender, node_id receiver) {
  tsch::transmission tx;
  tx.sender = sender;
  tx.receiver = receiver;
  return tx;
}

graph::hop_matrix path_hops(int n) {
  graph::graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return graph::hop_matrix(g);
}

// -------------------------------------------------------- constraints --

TEST(Constraints, ConflictFreeAgainstEmptySlot) {
  EXPECT_TRUE(conflict_free(make_tx(0, 1), {}));
}

TEST(Constraints, ConflictDetectsSharedNodes) {
  const std::vector<tsch::transmission> slot{make_tx(2, 3)};
  EXPECT_TRUE(conflict_free(make_tx(0, 1), slot));
  EXPECT_FALSE(conflict_free(make_tx(3, 4), slot));
  EXPECT_FALSE(conflict_free(make_tx(1, 2), slot));
}

TEST(Constraints, InfiniteRhoRequiresEmptyCell) {
  const auto hops = path_hops(8);
  EXPECT_TRUE(channel_constraint_ok(make_tx(0, 1), {}, k_infinite_hops,
                                    hops));
  EXPECT_FALSE(channel_constraint_ok(make_tx(0, 1), {make_tx(6, 7)},
                                     k_infinite_hops, hops));
}

TEST(Constraints, FiniteRhoChecksBothCrossPairs) {
  const auto hops = path_hops(8);
  // Cell holds 6->7. Candidate 0->1: hop(0,7)=7, hop(6,1)=5.
  EXPECT_TRUE(
      channel_constraint_ok(make_tx(0, 1), {make_tx(6, 7)}, 5, hops));
  EXPECT_FALSE(
      channel_constraint_ok(make_tx(0, 1), {make_tx(6, 7)}, 6, hops));
}

TEST(Constraints, RhoAppliesToEveryOccupant) {
  const auto hops = path_hops(12);
  // Cell holds 10->11 (far) and 5->6 (closer).
  const std::vector<tsch::transmission> cell{make_tx(10, 11),
                                             make_tx(5, 6)};
  // Candidate 0->1: hop(0,6)=6, hop(5,1)=4 -> fails at rho=5.
  EXPECT_FALSE(channel_constraint_ok(make_tx(0, 1), cell, 5, hops));
  EXPECT_TRUE(channel_constraint_ok(make_tx(0, 1), cell, 4, hops));
}

TEST(Constraints, UnreachableNodesAreInfinitelyFar) {
  graph::graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const graph::hop_matrix hops(g);
  // 0->1 and 2->3 are in different components: always reusable.
  EXPECT_TRUE(channel_constraint_ok(make_tx(0, 1), {make_tx(2, 3)}, 100,
                                    hops));
}

// -------------------------------------------------------- slot finder --

TEST(SlotFinder, FindsEarliestFreeSlot) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 2);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9,
                               k_infinite_hops, hops);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 0);
  EXPECT_EQ(found->offset, 0);
}

TEST(SlotFinder, SkipsConflictingSlots) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 2);
  sched.add(make_tx(1, 2), 0, 0);  // conflicts with 0->1 at slot 0
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9,
                               k_infinite_hops, hops);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 1);
}

TEST(SlotFinder, RespectsEarliestBound) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 2);
  const auto found = find_slot(sched, make_tx(0, 1), 4, 9,
                               k_infinite_hops, hops);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 4);
}

TEST(SlotFinder, ReturnsNulloptWhenWindowExhausted) {
  const auto hops = path_hops(8);
  tsch::schedule sched(5, 1);
  for (slot_t s = 0; s < 5; ++s) sched.add(make_tx(0, 1), s, 0);
  EXPECT_FALSE(find_slot(sched, make_tx(1, 2), 0, 4, k_infinite_hops, hops)
                   .has_value());
}

TEST(SlotFinder, WindowIsClippedToScheduleLength) {
  const auto hops = path_hops(8);
  tsch::schedule sched(5, 1);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 100,
                               k_infinite_hops, hops);
  ASSERT_TRUE(found.has_value());
}

TEST(SlotFinder, NoReuseFindsLaterSlotWhenChannelsFull) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 1);
  sched.add(make_tx(4, 5), 0, 0);
  // rho=inf: slot 0's only offset is occupied -> slot 1.
  const auto no_reuse = find_slot(sched, make_tx(0, 1), 0, 9,
                                  k_infinite_hops, hops);
  ASSERT_TRUE(no_reuse.has_value());
  EXPECT_EQ(no_reuse->slot, 1);
  // rho=3: hop(0,5)=5 >= 3, hop(4,1)=3 >= 3 -> reuse slot 0.
  const auto reuse = find_slot(sched, make_tx(0, 1), 0, 9, 3, hops);
  ASSERT_TRUE(reuse.has_value());
  EXPECT_EQ(reuse->slot, 0);
}

TEST(SlotFinder, MinLoadPrefersEmptyOffset) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 2);
  sched.add(make_tx(6, 7), 0, 0);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::min_load);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 0);
  EXPECT_EQ(found->offset, 1);  // the empty offset
}

TEST(SlotFinder, MaxReusePrefersOccupiedOffset) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 2);
  sched.add(make_tx(6, 7), 0, 0);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::max_reuse);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, 0);  // stacks onto the occupied offset
}

TEST(SlotFinder, FirstFitTakesLowestValidOffset) {
  const auto hops = path_hops(8);
  tsch::schedule sched(10, 3);
  sched.add(make_tx(6, 7), 0, 0);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::first_fit);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, 0);
}

TEST(SlotFinder, MinLoadBreaksTiesAmongOccupied) {
  const auto hops = path_hops(20);
  tsch::schedule sched(10, 2);
  // Offset 0: two transmissions; offset 1: one. All far from candidate.
  sched.add(make_tx(14, 15), 0, 0);
  sched.add(make_tx(18, 19), 0, 0);
  sched.add(make_tx(10, 11), 0, 1);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::min_load);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, 1);
}

TEST(SlotFinder, MaxReuseTieBreaksToLowestOffset) {
  const auto hops = path_hops(20);
  tsch::schedule sched(10, 3);
  // Offsets 1 and 2 carry equal load; offset 0 is empty. max_reuse must
  // pick the most-loaded cell and, on the tie, the lowest offset.
  sched.add(make_tx(14, 15), 0, 1);
  sched.add(make_tx(18, 19), 0, 2);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::max_reuse);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->slot, 0);
  EXPECT_EQ(found->offset, 1);
}

TEST(SlotFinder, MinLoadTieBreaksToLowestOffset) {
  const auto hops = path_hops(20);
  tsch::schedule sched(10, 3);
  // Every offset carries load 1: the lowest offset must win.
  sched.add(make_tx(14, 15), 0, 0);
  sched.add(make_tx(16, 17), 0, 1);
  sched.add(make_tx(18, 19), 0, 2);
  const auto found = find_slot(sched, make_tx(0, 1), 0, 9, 2, hops,
                               channel_policy::min_load);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, 0);
}

TEST(SlotFinder, IndexedAndNaivePathsAgree) {
  const auto hops = path_hops(20);
  tsch::schedule sched(12, 3);
  sched.add(make_tx(14, 15), 0, 0);
  sched.add(make_tx(18, 19), 0, 1);
  sched.add(make_tx(1, 2), 1, 0);  // conflicts with the candidate
  sched.add(make_tx(10, 11), 2, 2);
  for (const auto policy :
       {channel_policy::min_load, channel_policy::first_fit,
        channel_policy::max_reuse}) {
    for (const int period : {0, 3}) {
      const auto indexed =
          find_slot(sched, make_tx(0, 1), 0, 11, 2, hops, policy, nullptr,
                    period, /*use_index=*/true);
      const auto naive =
          find_slot(sched, make_tx(0, 1), 0, 11, 2, hops, policy, nullptr,
                    period, /*use_index=*/false);
      ASSERT_EQ(indexed.has_value(), naive.has_value());
      if (indexed) {
        EXPECT_EQ(indexed->slot, naive->slot);
        EXPECT_EQ(indexed->offset, naive->offset);
      }
    }
  }
}

// ------------------------------------------------------------- laxity --

/// Equation 1 through both of its paths: the reference calculate_laxity
/// and an instance_laxity snapshot of `post` taken from slot s + 1.
/// Expects the two equal and returns the reference value.
long long laxity(const tsch::schedule& sched,
                 std::span<const tsch::transmission> post, slot_t s,
                 slot_t deadline, int period = 0) {
  const long long reference =
      calculate_laxity(sched, post, s, deadline, period);
  instance_laxity snapshot;
  snapshot.snapshot(sched, post, s + 1, deadline, period);
  EXPECT_EQ(snapshot.laxity(0, s), reference)
      << "s=" << s << " deadline=" << deadline << " period=" << period;
  return reference;
}

TEST(Laxity, EmptyScheduleLeavesFullWindow) {
  tsch::schedule sched(100, 2);
  const std::vector<tsch::transmission> post{make_tx(1, 2), make_tx(2, 3)};
  // laxity = (d - s) - 0 - |post| = (80 - 10) - 2 = 68.
  EXPECT_EQ(laxity(sched, post, 10, 80), 68);
}

TEST(Laxity, NoRemainingTransmissionsUsesWindowOnly) {
  tsch::schedule sched(100, 2);
  EXPECT_EQ(laxity(sched, {}, 10, 80), 70);
  EXPECT_EQ(laxity(sched, {}, 80, 80), 0);
}

TEST(Laxity, CountsConflictingSlotsPerRemainingTransmission) {
  tsch::schedule sched(100, 2);
  // Slots 11 and 12 hold transmissions that conflict with 1->2.
  sched.add(make_tx(2, 9), 11, 0);
  sched.add(make_tx(5, 1), 12, 0);
  // Slot 13 holds a non-conflicting transmission.
  sched.add(make_tx(6, 7), 13, 0);
  const std::vector<tsch::transmission> post{make_tx(1, 2)};
  // laxity = (20 - 10) - 2 - 1 = 7.
  EXPECT_EQ(laxity(sched, post, 10, 20), 7);
}

TEST(Laxity, SumsOverAllRemainingTransmissions) {
  tsch::schedule sched(100, 2);
  sched.add(make_tx(1, 9), 11, 0);  // conflicts with 1->2 only
  sched.add(make_tx(3, 8), 12, 0);  // conflicts with 2->3 only
  const std::vector<tsch::transmission> post{make_tx(1, 2), make_tx(2, 3)};
  // Two distinct unusable slots: (20-10) - 2 - 2 = 6.
  EXPECT_EQ(laxity(sched, post, 10, 20), 6);
}

TEST(Laxity, SlotConflictingWithSeveralRemainingTxsCountsOnce) {
  tsch::schedule sched(100, 2);
  // Slot 11 holds 1->3, which conflicts with both remaining
  // transmissions. Eq. 1 subtracts an unusable slot once — counting it
  // per transmission (the seed behaviour, laxity 6) makes RC believe it
  // has less slack than it does.
  sched.add(make_tx(1, 3), 11, 0);
  const std::vector<tsch::transmission> post{make_tx(1, 2), make_tx(2, 3)};
  // (20 - 10) - 1 - 2 = 7.
  EXPECT_EQ(laxity(sched, post, 10, 20), 7);
}

TEST(Laxity, ManagementSlotsAreUnusable) {
  tsch::schedule sched(100, 2);
  const std::vector<tsch::transmission> post{make_tx(1, 2)};
  // Period 5 reserves slots 15 and 20 inside (10, 20] — find_slot never
  // places data there, so laxity must not count them as usable.
  EXPECT_EQ(laxity(sched, post, 10, 20, 5), 7);  // 10 - 2 - 1
  // Without the reservation the full window is available.
  EXPECT_EQ(laxity(sched, post, 10, 20, 0), 9);
}

TEST(Laxity, ConflictingManagementSlotCountsOnce) {
  tsch::schedule sched(100, 2);
  // Slot 15 is both management-reserved (period 5) and holds a
  // conflicting transmission: still one unusable slot, not two.
  sched.add(make_tx(1, 9), 15, 0);
  const std::vector<tsch::transmission> post{make_tx(1, 2)};
  // Unusable: 15 (management + conflict), 20 (management) -> 10 - 2 - 1.
  EXPECT_EQ(laxity(sched, post, 10, 20, 5), 7);
}

TEST(Laxity, EmptyPostIgnoresManagementSlots) {
  // With nothing left to place, no slot in the window is needed.
  tsch::schedule sched(100, 2);
  EXPECT_EQ(laxity(sched, {}, 10, 20, 5), 10);
}

TEST(Laxity, IndexedAndNaivePathsAgree) {
  tsch::schedule sched(200, 2);
  sched.add(make_tx(1, 3), 11, 0);
  sched.add(make_tx(2, 9), 64, 0);   // exercises a word boundary
  sched.add(make_tx(5, 1), 65, 1);
  sched.add(make_tx(6, 7), 70, 0);   // non-conflicting
  sched.add(make_tx(3, 8), 128, 0);  // another word
  const std::vector<tsch::transmission> post{make_tx(1, 2), make_tx(2, 3)};
  for (const int period : {0, 5, 64})
    for (const slot_t deadline : {20, 64, 100, 150, 500})
      laxity(sched, post, 10, deadline, period);

  // One snapshot serves every suffix of an instance: over a randomly
  // filled schedule, every suffix start and every candidate slot of the
  // window (and past it), with windows ending on and around the bitset
  // word boundaries, both paths agree, probe counts included.
  tsch::schedule busy(200, 2);
  rng gen(41);
  for (slot_t k = 0; k < 200; ++k) {
    if (!gen.bernoulli(0.6)) continue;
    const auto u = static_cast<node_id>(gen.uniform_int(0, 11));
    const auto v = static_cast<node_id>((u + 1 + gen.uniform_int(0, 10)) % 12);
    busy.add(make_tx(u, v), k, static_cast<offset_t>(gen.uniform_int(0, 1)));
  }
  // Retry attempts repeat a link, a link is revisited later on, and two
  // neighbours share a sender but not a receiver.
  const std::vector<tsch::transmission> txs{
      make_tx(1, 2), make_tx(1, 2), make_tx(2, 3), make_tx(2, 3),
      make_tx(3, 4), make_tx(3, 9), make_tx(1, 2), make_tx(5, 13)};
  instance_laxity snapshot;
  for (const int period : {0, 5, 7, 64}) {
    for (const slot_t first : {0, 1, 40, 63, 64}) {
      for (const slot_t deadline : {20, 63, 64, 65, 127, 128, 199, 250}) {
        snapshot.snapshot(busy, txs, first, deadline, period);
        for (std::size_t j = 0; j <= txs.size(); ++j) {
          const auto post =
              std::span<const tsch::transmission>(txs).subspan(j);
          for (slot_t s = std::max<slot_t>(first - 1, 0); s <= deadline + 2;
               ++s) {
            probe_counters naive_probes;
            probe_counters instance_probes;
            const long long naive = calculate_laxity(
                busy, post, s, deadline, period, &naive_probes);
            const auto context = ::testing::Message()
                                 << "period=" << period << " first=" << first
                                 << " deadline=" << deadline << " j=" << j
                                 << " s=" << s;
            ASSERT_EQ(snapshot.laxity(j, s, &instance_probes), naive)
                << context;
            EXPECT_EQ(instance_probes.slots_scanned,
                      naive_probes.slots_scanned)
                << context;
            EXPECT_EQ(instance_probes.index_hits,
                      instance_probes.slots_scanned)
                << context;
          }
        }
      }
    }
  }
}

TEST(Laxity, SnapshotRejectsSlotsBeforeItsWindow) {
  tsch::schedule sched(100, 2);
  const std::vector<tsch::transmission> txs{make_tx(1, 2)};
  instance_laxity snapshot;
  snapshot.snapshot(sched, txs, 10, 50, 0);
  EXPECT_EQ(snapshot.laxity(0, 9), 40);  // (50 - 9) - 0 - 1
  EXPECT_THROW(snapshot.laxity(0, 8), std::invalid_argument);
  EXPECT_THROW(snapshot.laxity(2, 20), std::invalid_argument);
}

TEST(Laxity, CanGoNegative) {
  tsch::schedule sched(100, 2);
  for (slot_t s = 11; s <= 14; ++s) sched.add(make_tx(1, 9), s, 0);
  const std::vector<tsch::transmission> post{make_tx(1, 2)};
  // (14 - 10) - 4 - 1 = -1.
  EXPECT_EQ(laxity(sched, post, 10, 14), -1);
}

TEST(Laxity, ConflictWindowStopsAtDeadline) {
  tsch::schedule sched(100, 2);
  sched.add(make_tx(1, 9), 30, 0);  // beyond the deadline: ignored
  const std::vector<tsch::transmission> post{make_tx(1, 2)};
  EXPECT_EQ(laxity(sched, post, 10, 20), 9);
}

}  // namespace
}  // namespace wsan::core
