#include "graph/hop_matrix.h"

#include <algorithm>

#include "common/error.h"
#include "graph/algorithms.h"

namespace wsan::graph {

hop_matrix::hop_matrix(const graph& g) : num_nodes_(g.num_nodes()) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  dist_.resize(n * n);
  for (node_id u = 0; u < num_nodes_; ++u) {
    const auto row = bfs_hops(g, u);
    for (node_id v = 0; v < num_nodes_; ++v) {
      const int d = row[static_cast<std::size_t>(v)];
      dist_[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          d;
      if (d != k_infinite_hops) diameter_ = std::max(diameter_, d);
    }
  }

  // Balls from distance rings: node y at distance d from u joins the
  // ring that ball(u, d + 1) adds to ball(u, d); a prefix OR over the
  // radii then turns rings into balls.
  ball_words_ = (n + 63) / 64;
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
