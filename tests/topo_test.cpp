#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/algorithms.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "topo/testbeds.h"
#include "topo/topology.h"
#include "topo/topology_io.h"

namespace wsan::topo {
namespace {

TEST(Topology, AddNodeAssignsDenseIds) {
  topology t;
  EXPECT_EQ(t.add_node({0, 0, 0}), 0);
  EXPECT_EQ(t.add_node({1, 0, 0}), 1);
  EXPECT_EQ(t.num_nodes(), 2);
}

TEST(Topology, DefaultsToNoSignal) {
  topology t;
  t.add_node({0, 0, 0});
  t.add_node({1, 0, 0});
  EXPECT_DOUBLE_EQ(t.prr(0, 1, 11), 0.0);
  EXPECT_DOUBLE_EQ(t.rssi_dbm(0, 1, 11), k_no_signal_dbm);
}

TEST(Topology, SetPrrRoundTrips) {
  topology t;
  t.add_node({0, 0, 0});
  t.add_node({1, 0, 0});
  t.set_prr(0, 1, 12, 0.95);
  EXPECT_NEAR(t.prr(0, 1, 12), 0.95, 1e-9);
  // Other direction and channels unaffected.
  EXPECT_DOUBLE_EQ(t.prr(1, 0, 12), 0.0);
  EXPECT_DOUBLE_EQ(t.prr(0, 1, 13), 0.0);
}

TEST(Topology, GrowingPreservesExistingLinks) {
  topology t;
  t.add_node({0, 0, 0});
  t.add_node({1, 0, 0});
  t.set_prr(0, 1, 11, 0.8);
  t.add_node({2, 0, 0});
  EXPECT_NEAR(t.prr(0, 1, 11), 0.8, 1e-9);
}

TEST(Topology, SelfLinksAreRejected) {
  topology t;
  t.add_node({0, 0, 0});
  EXPECT_THROW(t.set_rssi_dbm(0, 0, 11, -50.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(t.prr(0, 0, 11), 0.0);
}

TEST(Topology, MinMaxPrrAcrossChannels) {
  topology t;
  t.add_node({0, 0, 0});
  t.add_node({1, 0, 0});
  t.set_prr(0, 1, 11, 0.5);
  t.set_prr(0, 1, 12, 0.9);
  EXPECT_NEAR(t.min_prr(0, 1, {11, 12}), 0.5, 1e-9);
  EXPECT_NEAR(t.max_prr(0, 1, {11, 12}), 0.9, 1e-9);
  EXPECT_THROW(t.min_prr(0, 1, {}), std::invalid_argument);
}

TEST(Topology, OutOfRangeIdsAreRejected) {
  topology t;
  t.add_node({0, 0, 0});
  EXPECT_THROW(t.position_of(5), std::invalid_argument);
  EXPECT_THROW(t.rssi_dbm(0, 5, 11), std::invalid_argument);
}

// ----------------------------------------------------------- testbeds --

TEST(Testbeds, IndriyaHasPaperScale) {
  const auto t = make_indriya();
  EXPECT_EQ(t.num_nodes(), 80);
  EXPECT_EQ(t.name(), "indriya");
  int max_floor = 0;
  for (node_id v = 0; v < t.num_nodes(); ++v)
    max_floor = std::max(max_floor, t.position_of(v).floor);
  EXPECT_EQ(max_floor, 2);
}

TEST(Testbeds, WustlHasPaperScale) {
  const auto t = make_wustl();
  EXPECT_EQ(t.num_nodes(), 60);
  EXPECT_EQ(t.name(), "wustl");
}

TEST(Testbeds, GenerationIsDeterministic) {
  const auto a = make_wustl(99);
  const auto b = make_wustl(99);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.position_of(u).x, b.position_of(u).x);
    for (node_id v = 0; v < a.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_DOUBLE_EQ(a.rssi_dbm(u, v, 11), b.rssi_dbm(u, v, 11));
    }
  }
}

TEST(Testbeds, DifferentSeedsDiffer) {
  const auto a = make_wustl(1);
  const auto b = make_wustl(2);
  bool any_difference = false;
  for (node_id v = 1; v < a.num_nodes() && !any_difference; ++v)
    any_difference = a.rssi_dbm(0, v, 11) != b.rssi_dbm(0, v, 11);
  EXPECT_TRUE(any_difference);
}

TEST(Testbeds, CommunicationGraphIsConnectedOnPaperChannels) {
  // The schedulers need a connected communication graph at PRR_t = 0.9
  // over the channel counts the evaluation sweeps (Section VII).
  for (const char* name : {"indriya", "wustl"}) {
    const auto t = make_named_testbed(name);
    for (int nch : {3, 4, 5, 8}) {
      const auto comm =
          graph::build_communication_graph(t, phy::channels(nch));
      EXPECT_TRUE(graph::is_connected(comm))
          << name << " with " << nch << " channels";
    }
  }
}

TEST(Testbeds, NamedTestbedsUseTheirDefaultSeeds) {
  const auto same = [](const topology& a, const topology& b) {
    if (a.name() != b.name() || a.num_nodes() != b.num_nodes()) return false;
    for (node_id u = 0; u < a.num_nodes(); ++u)
      for (node_id v = 0; v < a.num_nodes(); ++v)
        for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
             ++ch)
          if (a.rssi_dbm(u, v, ch) != b.rssi_dbm(u, v, ch)) return false;
    return true;
  };
  EXPECT_TRUE(same(make_named_testbed("indriya"), make_indriya(1)));
  EXPECT_TRUE(same(make_named_testbed("wustl"), make_wustl(2)));
  EXPECT_TRUE(same(make_named_testbed("indriya", 2), make_indriya(2)));
  EXPECT_TRUE(same(make_named_testbed("wustl", 1), make_wustl(1)));
  EXPECT_THROW(make_named_testbed("nosuch"), std::invalid_argument);
  EXPECT_THROW(make_named_testbed("", 1), std::invalid_argument);
}

TEST(Testbeds, ReuseGraphIsDenserThanCommGraph) {
  const auto t = make_wustl();
  const auto channels = phy::channels(4);
  const auto comm = graph::build_communication_graph(t, channels);
  const auto reuse = graph::build_channel_reuse_graph(t, channels);
  EXPECT_GT(reuse.num_edges(), comm.num_edges());
}

TEST(Testbeds, ReuseGraphHasUsefulDiameter) {
  // Algorithm 1 seeds rho at the reuse-graph diameter; a diameter of at
  // least rho_t = 2 is required for conservative reuse to have room to
  // relax.
  const auto t = make_indriya();
  const auto reuse = graph::build_channel_reuse_graph(t, phy::channels(4));
  EXPECT_GE(graph::diameter(reuse), 2);
}

TEST(Testbeds, InvariantsHoldAcrossSeeds) {
  // The synthetic substrate must be robust: any reasonable seed gives a
  // connected communication graph with enough reuse-graph depth for the
  // algorithms to operate.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool indriya : {true, false}) {
      const auto t = indriya ? make_indriya(seed) : make_wustl(seed);
      const auto channels = phy::channels(4);
      const auto comm = graph::build_communication_graph(t, channels);
      EXPECT_TRUE(graph::is_connected(comm))
          << (indriya ? "indriya" : "wustl") << " seed " << seed;
      const auto reuse = graph::build_channel_reuse_graph(t, channels);
      EXPECT_GE(graph::diameter(reuse), 3)
          << (indriya ? "indriya" : "wustl") << " seed " << seed;
    }
  }
}

TEST(Testbeds, RejectsDegenerateParams) {
  testbed_params params;
  params.num_nodes = 1;
  EXPECT_THROW(make_testbed(params, 1), std::invalid_argument);
  params.num_nodes = 10;
  params.num_floors = 0;
  EXPECT_THROW(make_testbed(params, 1), std::invalid_argument);
}

// --------------------------------------------------------------- io ---

TEST(TopologyIo, SaveLoadRoundTrips) {
  const auto original = make_wustl(5);
  std::stringstream buffer;
  save_topology(original, buffer);
  const auto loaded = load_topology(buffer);

  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_DOUBLE_EQ(loaded.tx_power_dbm(), original.tx_power_dbm());
  for (node_id u = 0; u < original.num_nodes(); ++u) {
    EXPECT_NEAR(loaded.position_of(u).x, original.position_of(u).x, 1e-6);
    EXPECT_EQ(loaded.position_of(u).floor, original.position_of(u).floor);
  }
  // Spot-check link state on several channels.
  for (node_id u = 0; u < 10; ++u) {
    for (node_id v = 0; v < 10; ++v) {
      if (u == v) continue;
      for (channel_t ch : {11, 19, 26}) {
        EXPECT_NEAR(loaded.rssi_dbm(u, v, ch),
                    original.rssi_dbm(u, v, ch), 1e-6);
      }
    }
  }
}

TEST(TopologyIo, LoadRejectsMalformedInput) {
  std::stringstream bad1("bogus line here\n");
  EXPECT_THROW(load_topology(bad1), std::invalid_argument);
  std::stringstream bad2("node 0 1.0\n");
  EXPECT_THROW(load_topology(bad2), std::invalid_argument);
  std::stringstream bad3("node 1 0 0 0\n");  // non-dense ids
  EXPECT_THROW(load_topology(bad3), std::invalid_argument);
  std::stringstream trailing("node 0 1 2 0 extra\n");
  EXPECT_THROW(load_topology(trailing), std::invalid_argument);
  std::stringstream ok("node 0 1 2 0  \n");  // trailing blanks are fine
  EXPECT_NO_THROW(load_topology(ok));
}

TEST(TopologyIo, LoadRejectsNonPositiveTransitionWidth) {
  // The link model's grey-region width divides every PRR sigmoid
  // argument; a zero or negative width must fail at load time.
  const auto params = [](const std::string& width) {
    return "params 40 1 3 10 4 2 -88 -95 " + width + " 0\n";
  };
  for (const std::string width : {"0", "-1.5"}) {
    std::stringstream in(params(width));
    EXPECT_THROW(load_topology(in), std::invalid_argument) << width;
  }
  std::stringstream ok(params("5"));
  EXPECT_NO_THROW(load_topology(ok));
}

TEST(TopologyIo, CommentsAndBlankLinesAreIgnored) {
  std::stringstream in(
      "# comment\n"
      "\n"
      "topology demo\n"
      "node 0 1.0 2.0 0\n"
      "node 1 3.0 4.0 1\n");
  const auto t = load_topology(in);
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.name(), "demo");
}

}  // namespace
}  // namespace wsan::topo
