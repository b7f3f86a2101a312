#include "graph/hop_matrix.h"

#include <algorithm>
#include <bit>

namespace wsan::graph {

hop_matrix::hop_matrix(const graph& g) : num_nodes_(g.num_nodes()) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  ball_words_ = (n + 63) / 64;
  const std::size_t words = ball_words_;
  dist_.assign(n * n, k_infinite_hops);

  // Each row is a breadth-first search over node bitsets: a level's
  // frontier is the OR of its nodes' adjacency words minus the nodes
  // already reached, so a level costs a few word operations per
  // frontier node (bfs_hops is the node-at-a-time reference).
  std::vector<std::uint64_t> adjacency(n * words, 0);
  for (std::size_t u = 0; u < n; ++u)
    for (const node_id v : g.neighbors(static_cast<node_id>(u)))
      adjacency[u * words + static_cast<std::size_t>(v) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(v) % 64);
  std::vector<std::uint64_t> reached(words);
  std::vector<std::uint64_t> frontier(words);
  std::vector<std::uint64_t> next(words);
  for (std::size_t u = 0; u < n; ++u) {
    int* row = dist_.data() + u * n;
    std::fill(reached.begin(), reached.end(), 0);
    std::fill(frontier.begin(), frontier.end(), 0);
    reached[u / 64] = frontier[u / 64] = std::uint64_t{1} << (u % 64);
    row[u] = 0;
    for (int d = 1;; ++d) {
      std::fill(next.begin(), next.end(), 0);
      for (std::size_t w = 0; w < words; ++w)
        for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
          const std::size_t x = w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits));
          for (std::size_t k = 0; k < words; ++k)
            next[k] |= adjacency[x * words + k];
        }
      bool grew = false;
      for (std::size_t w = 0; w < words; ++w) {
        next[w] &= ~reached[w];
        reached[w] |= next[w];
        grew = grew || next[w] != 0;
        for (std::uint64_t bits = next[w]; bits != 0; bits &= bits - 1)
          row[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = d;
      }
      if (!grew) break;
      diameter_ = std::max(diameter_, d);
      frontier.swap(next);
    }
  }

  // Balls from distance rings: node y at distance d from u joins the
  // ring that ball(u, d + 1) adds to ball(u, d); a prefix OR over the
  // radii then turns rings into balls.
  balls_.assign(n * radii() * ball_words_, 0);
  for (std::size_t u = 0; u < n; ++u) {
    std::uint64_t* own = balls_.data() + u * radii() * ball_words_;
    for (std::size_t y = 0; y < n; ++y) {
      const int d = dist_[u * n + y];
      if (d == k_infinite_hops) continue;
      own[(static_cast<std::size_t>(d) + 1) * ball_words_ + y / 64] |=
          std::uint64_t{1} << (y % 64);
    }
    for (std::size_t r = 1; r < radii(); ++r)
      for (std::size_t w = 0; w < ball_words_; ++w)
        own[r * ball_words_ + w] |= own[(r - 1) * ball_words_ + w];
  }
}

}  // namespace wsan::graph
