// Differential test for the word-parallel slot search: on randomized,
// partly filled schedules, core::find_slot over the occupancy index
// must return the same slot_assignment as the naive per-slot scan and
// report identical probe counts, for every channel policy, reuse
// distance, isolation set, management period and window placement —
// including windows whose ends fall on the 64-slot bitset word
// boundaries, where an off-by-one in a word mask would hide.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/slot_finder.h"
#include "graph/graph.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"

namespace wsan::core {
namespace {

constexpr int k_nodes = 24;
constexpr int k_rho_t = 2;

/// A ring with random chords: hop distances up to 9, so every
/// rho in [rho_t, diameter] accepts some occupied cells and rejects
/// others.
graph::hop_matrix make_hops() {
  graph::graph g(k_nodes);
  for (node_id u = 0; u < k_nodes; ++u) g.add_edge(u, (u + 1) % k_nodes);
  rng gen(17);
  for (int i = 0; i < 4; ++i) {
    const auto u = static_cast<node_id>(gen.uniform_int(0, k_nodes - 1));
    const auto v = static_cast<node_id>(gen.uniform_int(0, k_nodes - 1));
    if (u != v) g.add_edge(u, v);
  }
  return graph::hop_matrix(g);
}

tsch::transmission random_tx(rng& gen, flow_id flow) {
  tsch::transmission tx;
  tx.flow = flow;
  tx.sender = static_cast<node_id>(gen.uniform_int(0, k_nodes - 1));
  do {
    tx.receiver = static_cast<node_id>(gen.uniform_int(0, k_nodes - 1));
  } while (tx.receiver == tx.sender);
  return tx;
}

/// A schedule whose slots are empty, partly filled or full (every
/// offset occupied, some cells shared), with flows 0..9 spread over it;
/// optionally a suffix of flows is removed afterwards, so full slots
/// also lose their bit through remove_flows_from.
tsch::schedule random_schedule(rng& gen, slot_t num_slots, int offsets) {
  tsch::schedule sched(num_slots, offsets);
  const double fill = gen.uniform_real(0.1, 0.9);
  for (slot_t s = 0; s < num_slots; ++s) {
    if (!gen.bernoulli(fill)) continue;
    const bool make_full = gen.bernoulli(0.6);
    for (offset_t c = 0; c < offsets; ++c) {
      if (!make_full && gen.bernoulli(0.5)) continue;
      const int load = gen.bernoulli(0.3) ? 2 : 1;
      for (int i = 0; i < load; ++i) {
        const auto flow = static_cast<flow_id>(gen.uniform_int(0, 9));
        sched.add(random_tx(gen, flow), s, c);
      }
    }
  }
  if (gen.bernoulli(0.5))
    sched.remove_flows_from(static_cast<flow_id>(gen.uniform_int(0, 9)));
  return sched;
}

/// Runs both paths on one query and compares answers and counters.
void expect_same_search(const tsch::schedule& sched,
                        const tsch::transmission& tx, slot_t earliest,
                        slot_t latest, int rho,
                        const graph::hop_matrix& hops,
                        channel_policy policy, const link_set* isolated,
                        int management_period, const std::string& context) {
  probe_counters indexed_probes;
  probe_counters naive_probes;
  const auto indexed =
      find_slot(sched, tx, earliest, latest, rho, hops, policy, isolated,
                management_period, true, &indexed_probes);
  const auto naive =
      find_slot(sched, tx, earliest, latest, rho, hops, policy, isolated,
                management_period, false, &naive_probes);
  ASSERT_EQ(indexed.has_value(), naive.has_value()) << context;
  if (naive) {
    EXPECT_EQ(indexed->slot, naive->slot) << context;
    EXPECT_EQ(indexed->offset, naive->offset) << context;
  }
  EXPECT_EQ(indexed_probes.slots_scanned, naive_probes.slots_scanned)
      << context;
  EXPECT_EQ(indexed_probes.cells_probed, naive_probes.cells_probed)
      << context;
  // Every indexed probe is answered by the index; the naive scan never
  // consults it.
  EXPECT_EQ(indexed_probes.index_hits,
            indexed_probes.slots_scanned + indexed_probes.cells_probed)
      << context;
  EXPECT_EQ(naive_probes.index_hits, 0u) << context;
  // Counting is optional and never changes the answer.
  const auto uncounted = find_slot(sched, tx, earliest, latest, rho, hops,
                                   policy, isolated, management_period);
  ASSERT_EQ(uncounted.has_value(), indexed.has_value()) << context;
  if (uncounted) {
    EXPECT_EQ(uncounted->slot, indexed->slot) << context;
    EXPECT_EQ(uncounted->offset, indexed->offset) << context;
  }
}

std::vector<int> all_rhos(const graph::hop_matrix& hops) {
  std::vector<int> rhos{k_infinite_hops};
  for (int rho = k_rho_t; rho <= hops.diameter(); ++rho)
    rhos.push_back(rho);
  return rhos;
}

constexpr channel_policy k_policies[] = {channel_policy::min_load,
                                         channel_policy::first_fit,
                                         channel_policy::max_reuse};

TEST(FindSlotEquivalence, RandomSchedulesAndWindows) {
  const auto hops = make_hops();
  ASSERT_GE(hops.diameter(), k_rho_t + 2);
  const auto rhos = all_rhos(hops);
  // Window ends on and around the bitset word boundaries.
  const slot_t edges[] = {0, 1, 63, 64, 65, 127, 128};
  const slot_t slot_counts[] = {129, 150, 200};
  rng gen(2024);
  int found = 0;
  int missed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const slot_t num_slots = slot_counts[trial % 3];
    const int offsets = 1 + trial % 4;
    const auto sched = random_schedule(gen, num_slots, offsets);
    // Isolation: none, an empty set, and links both placed and queried.
    link_set isolated;
    for (int i = 0; i < 12; ++i) {
      const auto tx = random_tx(gen, 0);
      isolated.insert({tx.sender, tx.receiver});
    }
    for (const auto& p : sched.placements())
      if (gen.bernoulli(0.1))
        isolated.insert({p.tx.sender, p.tx.receiver});
    const link_set empty;
    const link_set* isolation_sets[] = {nullptr, &empty, &isolated};

    for (int query = 0; query < 12; ++query) {
      auto tx = random_tx(gen, 10);
      if (query % 4 == 0) {
        // A queried link that is itself isolated.
        const auto it = isolated.begin();
        tx.sender = it->first;
        tx.receiver = it->second;
      }
      slot_t earliest = edges[gen.uniform_int(0, 6)];
      slot_t latest = query % 3 == 0
                          ? edges[gen.uniform_int(0, 6)]
                          : static_cast<slot_t>(gen.uniform_int(
                                0, num_slots + 4));  // may overrun
      if (query % 5 == 0)
        earliest = static_cast<slot_t>(gen.uniform_int(0, num_slots - 1));
      for (const int period : {0, 3, 7, 64}) {
        for (const auto* iso : isolation_sets) {
          for (const auto policy : k_policies) {
            for (const int rho : rhos) {
              const std::string context =
                  "trial " + std::to_string(trial) + " query " +
                  std::to_string(query) + " window [" +
                  std::to_string(earliest) + ", " +
                  std::to_string(latest) + "] rho " + std::to_string(rho) +
                  " policy " + to_string(policy) + " period " +
                  std::to_string(period) + " isolation " +
                  (iso == nullptr ? "null"
                                  : iso->empty() ? "empty" : "set");
              expect_same_search(sched, tx, earliest, latest, rho, hops,
                                 policy, iso, period, context);
              if (HasFatalFailure()) return;
              const auto hit = find_slot(sched, tx, earliest, latest, rho,
                                         hops, policy, iso, period);
              (hit ? found : missed)++;
            }
          }
        }
      }
    }
  }
  // The randomized space covers both answers.
  EXPECT_GT(found, 1000);
  EXPECT_GT(missed, 1000);
}

/// Every slot of the window but one is unusable for tx, so the answer
/// must be exactly that slot — the first or the last of the window, on
/// either side of a word boundary. At rho = infinity the blocker is a
/// full slot; at finite rho a busy endpoint.
TEST(FindSlotEquivalence, SearchReachesBothEndsOfTheWindow) {
  const auto hops = make_hops();
  const slot_t edges[] = {0, 63, 64, 65, 127, 128};
  for (const bool full_blocks : {true, false}) {
    for (const slot_t target : edges) {
      for (const bool target_is_last : {true, false}) {
        const slot_t earliest = target_is_last ? 0 : target;
        const slot_t latest = target_is_last ? target : 128;
        tsch::schedule sched(129, 2);
        flow_id next = 0;
        for (slot_t s = earliest; s <= latest; ++s) {
          if (s == target) continue;
          if (full_blocks) {
            sched.add({next++, 0, 0, 0, 10, 11}, s, 0);
            sched.add({next++, 0, 0, 0, 12, 13}, s, 1);
          } else {
            sched.add({next++, 0, 0, 0, 0, 11}, s, 0);  // sender busy
          }
        }
        const tsch::transmission tx{next, 0, 0, 0, 0, 1};
        for (const auto policy : k_policies) {
          const int rho = full_blocks ? k_infinite_hops : k_rho_t;
          const std::string context =
              "target " + std::to_string(target) +
              (target_is_last ? " (last)" : " (first)") +
              (full_blocks ? " full" : " busy") + " " + to_string(policy);
          expect_same_search(sched, tx, earliest, latest, rho, hops, policy,
                             nullptr, 0, context);
          const auto hit =
              find_slot(sched, tx, earliest, latest, rho, hops, policy);
          ASSERT_TRUE(hit.has_value()) << context;
          EXPECT_EQ(hit->slot, target) << context;
          EXPECT_EQ(hit->offset, 0) << context;
        }
        // Without the target slot the window holds no answer.
        const slot_t shrunk_earliest = target_is_last ? earliest : target + 1;
        const slot_t shrunk_latest = target_is_last ? target - 1 : latest;
        if (shrunk_earliest <= shrunk_latest) {
          const int rho = full_blocks ? k_infinite_hops : k_rho_t;
          expect_same_search(sched, tx, shrunk_earliest, shrunk_latest, rho,
                             hops, channel_policy::min_load, nullptr, 0,
                             "shrunk window");
          EXPECT_FALSE(find_slot(sched, tx, shrunk_earliest, shrunk_latest,
                                 rho, hops)
                           .has_value());
        }
      }
    }
  }
}

/// The bulk counts are the naive scan's: slots_scanned counts every
/// non-management slot up to the answer, and a full conflict-free slot
/// at rho = infinity counts all of its cells as probed.
TEST(FindSlotEquivalence, BulkProbeCountsMatchHandCount) {
  const auto hops = make_hops();
  tsch::schedule sched(130, 3);
  // Slots 60..69 full, 70 busy for node 0, 71 free at offset 1.
  for (slot_t s = 60; s < 70; ++s)
    for (offset_t c = 0; c < 3; ++c)
      sched.add({0, 0, 0, 0, 10 + c, 20 + c}, s, c);
  sched.add({0, 0, 0, 0, 0, 5}, 70, 0);
  sched.add({0, 0, 0, 0, 6, 7}, 71, 0);
  const tsch::transmission tx{1, 0, 0, 0, 0, 1};
  for (const int period : {0, 4}) {
    probe_counters probes;
    const auto hit = find_slot(sched, tx, 60, 129, k_infinite_hops, hops,
                               channel_policy::min_load, nullptr, period,
                               true, &probes);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->slot, 71);
    EXPECT_EQ(hit->offset, 1);
    // Period 4 reserves slots 60, 64 and 68 of the 12 in [60, 71].
    const std::size_t scanned = period == 0 ? 12 : 9;
    const std::size_t full_cf = period == 0 ? 10 : 7;
    EXPECT_EQ(probes.slots_scanned, scanned);
    EXPECT_EQ(probes.cells_probed, full_cf * 3 + 2);  // + offsets 0, 1
    EXPECT_EQ(probes.index_hits, scanned + full_cf * 3 + 2);
  }
}

}  // namespace
}  // namespace wsan::core
