#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/comm_graph.h"
#include "graph/graph.h"
#include "graph/hop_matrix.h"
#include "graph/reuse_graph.h"
#include "phy/channel.h"
#include "topo/testbeds.h"
#include "topo/topology.h"

namespace wsan::graph {
namespace {

graph make_path(int n) {
  graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

// -------------------------------------------------------------- graph --

TEST(Graph, EdgesAreUndirectedAndDeduplicated) {
  graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NeighborsAreSorted) {
  graph g(4);
  g.add_edge(2, 3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  EXPECT_EQ(g.neighbors(2), (std::vector<node_id>{0, 1, 3}));
  EXPECT_EQ(g.degree(2), 3);
}

TEST(Graph, RejectsSelfLoopsAndBadIds) {
  graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(g.neighbors(9), std::invalid_argument);
}

// --------------------------------------------------------- algorithms --

TEST(Algorithms, BfsHopsOnPathGraph) {
  const auto g = make_path(5);
  const auto d = bfs_hops(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(Algorithms, BfsMarksUnreachable) {
  graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d[2], k_infinite_hops);
}

TEST(Algorithms, ShortestPathFindsEndpoints) {
  const auto g = make_path(4);
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<node_id>{0, 1, 2, 3}));
}

TEST(Algorithms, ShortestPathOfNodeToItself) {
  const auto g = make_path(3);
  const auto p = shortest_path(g, 1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<node_id>{1}));
}

TEST(Algorithms, ShortestPathUnreachableReturnsNullopt) {
  graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
}

TEST(Algorithms, ShortestPathIsDeterministicUnderTies) {
  // Diamond: 0-1-3 and 0-2-3 are both length 2; BFS with sorted
  // neighbors must pick through node 1.
  graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<node_id>{0, 1, 3}));
}

TEST(Algorithms, WeightedShortestPathPrefersLightRoute) {
  // 0-1-2 with cheap edges vs direct heavy 0-2.
  graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const auto heavy_direct = shortest_path_weighted(
      g, 0, 2, [](node_id u, node_id v) {
        return (u == 0 && v == 2) || (u == 2 && v == 0) ? 10.0 : 1.0;
      });
  ASSERT_TRUE(heavy_direct.has_value());
  EXPECT_EQ(*heavy_direct, (std::vector<node_id>{0, 1, 2}));
}

TEST(Algorithms, ConnectivityAndComponents) {
  graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_connected(graph(0)));
}

TEST(Algorithms, DiameterOfPathGraph) {
  EXPECT_EQ(diameter(make_path(6)), 5);
  EXPECT_EQ(diameter(graph(1)), 0);
  EXPECT_EQ(diameter(graph(0)), 0);
}

TEST(Algorithms, DiameterIgnoresUnreachablePairs) {
  graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // node 3 isolated
  EXPECT_EQ(diameter(g), 2);
}

// ---------------------------------------------------------- hop matrix --

TEST(HopMatrix, MatchesBfs) {
  // The matrix runs its searches over node bitsets, so graphs of one
  // word, of exactly one and of several words, with unreachable nodes,
  // plus both testbeds' channel-reuse graphs, against bfs_hops.
  std::vector<graph> graphs{graph(0), graph(1), make_path(64)};
  rng gen(5);
  for (const int n : {20, 63, 65, 130}) {
    graph g(n);
    for (int e = 0; e < 2 * n; ++e) {
      const auto u = static_cast<node_id>(gen.uniform_int(0, n - 4));
      const auto v = static_cast<node_id>(gen.uniform_int(0, n - 4));
      if (u != v) g.add_edge(u, v);  // the last three stay isolated
    }
    graphs.push_back(g);
  }
  for (const auto& topology : {topo::make_indriya(), topo::make_wustl()})
    graphs.push_back(build_channel_reuse_graph(topology, phy::channels(4)));
  for (const graph& g : graphs) {
    const hop_matrix hm(g);
    ASSERT_EQ(hm.num_nodes(), g.num_nodes());
    for (node_id u = 0; u < g.num_nodes(); ++u) {
      const auto d = bfs_hops(g, u);
      for (node_id v = 0; v < g.num_nodes(); ++v)
        ASSERT_EQ(hm.hops(u, v), d[static_cast<std::size_t>(v)])
            << "n=" << g.num_nodes() << " " << u << " -> " << v;
    }
    EXPECT_EQ(hm.diameter(), diameter(g)) << "n=" << g.num_nodes();
  }
}

TEST(HopMatrix, IsSymmetric) {
  const auto g = make_path(7);
  const hop_matrix hm(g);
  for (node_id u = 0; u < 7; ++u)
    for (node_id v = 0; v < 7; ++v) EXPECT_EQ(hm.hops(u, v), hm.hops(v, u));
}

TEST(HopMatrix, BallsHoldExactlyTheNodesCloserThanRho) {
  // A 70-node path (balls span two words), a random 90-node graph with
  // chords, and both with a few unreachable nodes left out of every
  // edge.
  std::vector<graph> graphs;
  graphs.push_back(make_path(70));
  rng gen(11);
  graph random(90);
  for (int e = 0; e < 150; ++e) {
    const auto u = static_cast<node_id>(gen.uniform_int(0, 85));
    const auto v = static_cast<node_id>(gen.uniform_int(0, 85));
    if (u != v) random.add_edge(u, v);  // nodes 86..89 stay isolated
  }
  graphs.push_back(random);
  graph split(68);
  for (node_id u = 0; u + 1 < 66; ++u) split.add_edge(u, u + 1);
  split.add_edge(66, 67);  // a second component beyond the first word
  graphs.push_back(split);

  for (const graph& g : graphs) {
    const hop_matrix hm(g);
    const int n = hm.num_nodes();
    ASSERT_EQ(hm.ball_words(), static_cast<std::size_t>((n + 63) / 64));
    for (node_id u = 0; u < n; ++u)
      for (node_id y = 0; y < n; ++y)
        ASSERT_EQ(hm.hops(u, y), hm.hops(y, u)) << u << "," << y;
    for (int rho = 0; rho <= hm.diameter() + 2; ++rho) {
      for (node_id u = 0; u < n; ++u) {
        const std::uint64_t* ball = hm.ball(u, rho);
        for (std::size_t y = 0; y < hm.ball_words() * 64; ++y) {
          const bool inside = (ball[y / 64] >> (y % 64)) & 1;
          const bool closer =
              y < static_cast<std::size_t>(n) &&
              hm.hops(u, static_cast<node_id>(y)) < rho;
          EXPECT_EQ(inside, closer)
              << "n=" << n << " u=" << u << " y=" << y << " rho=" << rho;
        }
      }
    }
  }
}

TEST(HopMatrix, BallRejectsInfiniteRadiusAndBadIds) {
  const hop_matrix hm(make_path(5));
  EXPECT_THROW(hm.ball(0, k_infinite_hops), std::invalid_argument);
  EXPECT_THROW(hm.ball(0, -1), std::invalid_argument);
  EXPECT_THROW(hm.ball(5, 2), std::invalid_argument);
  EXPECT_THROW(hm.ball(-1, 2), std::invalid_argument);
}

// --------------------------------------------- comm and reuse builders --

topo::topology three_node_topo() {
  topo::topology t;
  t.add_node({0, 0, 0});
  t.add_node({10, 0, 0});
  t.add_node({20, 0, 0});
  return t;
}

TEST(CommGraph, RequiresThresholdInBothDirectionsOnAllChannels) {
  auto t = three_node_topo();
  const std::vector<channel_t> channels{11, 12};
  // 0<->1 good both ways on both channels.
  for (channel_t ch : channels) {
    t.set_prr(0, 1, ch, 0.95);
    t.set_prr(1, 0, ch, 0.95);
  }
  // 1<->2 good except one direction on one channel.
  t.set_prr(1, 2, 11, 0.95);
  t.set_prr(2, 1, 11, 0.95);
  t.set_prr(1, 2, 12, 0.95);
  t.set_prr(2, 1, 12, 0.5);  // fails threshold

  const auto g = build_communication_graph(t, channels);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(CommGraph, ThresholdBoundary) {
  auto t = three_node_topo();
  t.set_prr(0, 1, 11, 0.9);
  t.set_prr(1, 0, 11, 0.9);
  // The threshold comparison is inclusive: a link at exactly PRR_t
  // qualifies. (Compare against the stored value to stay robust to the
  // PRR <-> RSSI round trip.)
  const double stored = std::min(t.prr(0, 1, 11), t.prr(1, 0, 11));
  comm_graph_options opts;
  opts.prr_threshold = stored;
  const auto g = build_communication_graph(t, {11}, opts);
  EXPECT_TRUE(g.has_edge(0, 1));
  opts.prr_threshold = std::nextafter(stored, 1.0);
  const auto g2 = build_communication_graph(t, {11}, opts);
  EXPECT_FALSE(g2.has_edge(0, 1));
}

TEST(CommGraph, NanPrrNeverRejectsALink) {
  // topology::min_prr ignores a NaN channel, and so does the builder:
  // a link is rejected only by a channel that reads below PRR_t.
  auto t = three_node_topo();
  const std::vector<channel_t> channels{11, 12, 13};
  for (const channel_t ch : channels) {
    t.set_prr(0, 1, ch, 0.95);
    t.set_prr(1, 0, ch, 0.95);
  }
  t.set_rssi_dbm(0, 1, 12, std::nan(""));
  ASSERT_TRUE(std::isnan(t.prr(0, 1, 12)));
  EXPECT_GE(t.min_prr(0, 1, channels), 0.9);
  EXPECT_TRUE(build_communication_graph(t, channels).has_edge(0, 1));
  t.set_prr(1, 0, 13, 0.5);
  EXPECT_FALSE(build_communication_graph(t, channels).has_edge(0, 1));
}

TEST(CommGraph, MatchesTheMinPrrDefinitionOnTestbeds) {
  // Edge for edge, the builder equals its definition (min_prr over the
  // channels, both directions) on both testbeds at several seeds and
  // channel counts.
  for (const std::string name : {"indriya", "wustl"})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto topology = topo::make_named_testbed(name, seed);
      for (const int count : {1, 2, 4, 8, 16}) {
        const auto channels = phy::channels(count);
        const auto g = build_communication_graph(topology, channels);
        std::size_t edges = 0;
        for (node_id u = 0; u < topology.num_nodes(); ++u)
          for (node_id v = u + 1; v < topology.num_nodes(); ++v) {
            const bool defined = topology.min_prr(u, v, channels) >= 0.9 &&
                                 topology.min_prr(v, u, channels) >= 0.9;
            edges += defined ? 1 : 0;
            ASSERT_EQ(g.has_edge(u, v), defined)
                << name << " seed " << seed << " channels " << count << " "
                << u << "-" << v;
          }
        EXPECT_EQ(g.num_edges(), edges);
      }
    }
}

TEST(ReuseGraph, AnyDirectionAnyChannelCreatesEdge) {
  auto t = three_node_topo();
  // Only one direction on one channel has detectable signal.
  t.set_prr(2, 1, 14, 0.3);
  reuse_graph_options exact;
  exact.measurement_window = 0;
  const auto g = build_channel_reuse_graph(t, phy::channels(4), exact);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(ReuseGraph, DetectionFloorHidesVeryWeakLinks) {
  auto t = three_node_topo();
  t.set_prr(0, 1, 11, 0.005);  // below the 0.01 exact detection floor
  reuse_graph_options exact;
  exact.measurement_window = 0;
  const auto g = build_channel_reuse_graph(t, {11}, exact);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(ReuseGraph, MeasurementSamplingMissesMarginalLinks) {
  // A link with true PRR ~2% reads zero over a 50-packet window about
  // a third of the time: across many campaign seeds the edge must
  // appear in some campaigns and be missed in others. A strong link is
  // always detected.
  auto t = three_node_topo();
  t.set_prr(0, 1, 11, 0.02);
  t.set_prr(1, 2, 11, 0.9);
  int marginal_detected = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    reuse_graph_options opts;
    opts.measurement_window = 50;
    opts.seed = seed;
    const auto g = build_channel_reuse_graph(t, {11}, opts);
    marginal_detected += g.has_edge(0, 1) ? 1 : 0;
    EXPECT_TRUE(g.has_edge(1, 2)) << "seed " << seed;
  }
  EXPECT_GT(marginal_detected, 10);  // P(detect) ~ 64%
  EXPECT_LT(marginal_detected, 58);
}

TEST(ReuseGraph, MeasurementCampaignIsDeterministicPerSeed) {
  const auto t = topo::make_wustl(4);
  const auto channels = phy::channels(4);
  const auto a = build_channel_reuse_graph(t, channels);
  const auto b = build_channel_reuse_graph(t, channels);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (node_id u = 0; u < t.num_nodes(); ++u)
    EXPECT_EQ(a.neighbors(u), b.neighbors(u));
}

TEST(ReuseGraph, ContainsCommGraph) {
  // Every communication edge (PRR >= 0.9 everywhere) is trivially a
  // reuse edge (PRR > 0 somewhere).
  const auto t = topo::make_wustl(3);
  const auto channels = phy::channels(5);
  const auto comm = build_communication_graph(t, channels);
  const auto reuse = build_channel_reuse_graph(t, channels);
  for (node_id u = 0; u < t.num_nodes(); ++u)
    for (node_id v : comm.neighbors(u)) EXPECT_TRUE(reuse.has_edge(u, v));
}

}  // namespace
}  // namespace wsan::graph
