#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

#include "common/error.h"

namespace wsan::graph {

std::vector<int> bfs_hops(const graph& g, node_id source) {
  WSAN_REQUIRE(source >= 0 && source < g.num_nodes(),
               "source id out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        k_infinite_hops);
  std::queue<node_id> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const node_id u = queue.front();
    queue.pop();
    for (node_id v : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] != k_infinite_hops) continue;
      dist[static_cast<std::size_t>(v)] =
          dist[static_cast<std::size_t>(u)] + 1;
      queue.push(v);
    }
  }
  return dist;
}

std::optional<std::vector<node_id>> shortest_path(const graph& g,
                                                  node_id source,
                                                  node_id target) {
  WSAN_REQUIRE(source >= 0 && source < g.num_nodes(),
               "source id out of range");
  WSAN_REQUIRE(target >= 0 && target < g.num_nodes(),
               "target id out of range");
  if (source == target) return std::vector<node_id>{source};
  // prev doubles as the visited mark (the source is its own
  // predecessor), and the FIFO is a flat array: each node enters once.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<node_id> prev(n, k_invalid_node);
  std::vector<node_id> queue;
  queue.reserve(n);
  prev[static_cast<std::size_t>(source)] = source;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const node_id u = queue[head];
    if (u == target) break;
    for (node_id v : g.neighbors(u)) {  // sorted -> deterministic ties
      if (prev[static_cast<std::size_t>(v)] != k_invalid_node) continue;
      prev[static_cast<std::size_t>(v)] = u;
      queue.push_back(v);
    }
  }
  if (prev[static_cast<std::size_t>(target)] == k_invalid_node)
    return std::nullopt;
  std::vector<node_id> path;
  for (node_id at = target; at != source;
       at = prev[static_cast<std::size_t>(at)])
    path.push_back(at);
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

bool is_connected(const graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_hops(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d == k_infinite_hops; });
}

int diameter(const graph& g) {
  int best = 0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_hops(g, u);
    for (int d : dist)
      if (d != k_infinite_hops) best = std::max(best, d);
  }
  return best;
}

graph remove_nodes(const graph& g, const std::set<node_id>& removed) {
  graph pruned(g.num_nodes());
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    if (removed.count(u) > 0) continue;
    for (node_id v : g.neighbors(u)) {
      if (v < u || removed.count(v) > 0) continue;
      pruned.add_edge(u, v);
    }
  }
  return pruned;
}

}  // namespace wsan::graph
