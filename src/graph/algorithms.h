// Graph algorithms: BFS distances, shortest paths, connectivity,
// diameter, node removal.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace wsan::graph {

/// Hop distances from `source` to every node; k_infinite_hops where
/// unreachable.
std::vector<int> bfs_hops(const graph& g, node_id source);

/// Shortest (fewest-hop) path from `source` to `target` as a node
/// sequence including both endpoints. Ties are broken toward
/// lower-numbered predecessors, making routes deterministic.
/// Returns nullopt when unreachable.
std::optional<std::vector<node_id>> shortest_path(const graph& g,
                                                  node_id source,
                                                  node_id target);

/// Weighted shortest path (Dijkstra). `edge_weight(u, v)` must return a
/// positive weight for every edge of g.
template <typename WeightFn>
std::optional<std::vector<node_id>> shortest_path_weighted(
    const graph& g, node_id source, node_id target, WeightFn edge_weight);

/// True iff all nodes are reachable from node 0 (or the graph is empty).
bool is_connected(const graph& g);

/// Maximum finite shortest-path distance between any two nodes. For a
/// disconnected graph, the diameter of the largest distances among
/// reachable pairs is returned. Returns 0 for graphs with < 2 nodes.
int diameter(const graph& g);

/// Copy of g with every edge incident to a node in `removed` dropped.
/// Node count and ids are preserved — removed nodes become isolated —
/// so routes computed on the pruned graph stay in the original id
/// space. Used to route around nodes declared dead.
graph remove_nodes(const graph& g, const std::set<node_id>& removed);

// ---- template implementation -------------------------------------------

template <typename WeightFn>
std::optional<std::vector<node_id>> shortest_path_weighted(
    const graph& g, node_id source, node_id target, WeightFn edge_weight) {
  const int n = g.num_nodes();
  if (source < 0 || source >= n || target < 0 || target >= n)
    return std::nullopt;
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), inf);
  std::vector<node_id> prev(static_cast<std::size_t>(n), k_invalid_node);
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> queue;
  dist[static_cast<std::size_t>(source)] = 0.0;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == target) break;
    for (node_id v : g.neighbors(u)) {
      const double w = edge_weight(u, v);
      const double candidate = d + w;
      if (candidate < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = candidate;
        prev[static_cast<std::size_t>(v)] = u;
        queue.emplace(candidate, v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(target)] == inf) return std::nullopt;
  std::vector<node_id> path;
  for (node_id at = target; at != k_invalid_node;
       at = prev[static_cast<std::size_t>(at)])
    path.push_back(at);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace wsan::graph
