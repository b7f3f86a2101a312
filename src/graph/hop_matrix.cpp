#include "graph/hop_matrix.h"

#include <algorithm>

#include "common/error.h"
#include "graph/algorithms.h"

namespace wsan::graph {

hop_matrix::hop_matrix(const graph& g) : num_nodes_(g.num_nodes()) {
  dist_.resize(static_cast<std::size_t>(num_nodes_) *
               static_cast<std::size_t>(num_nodes_));
  for (node_id u = 0; u < num_nodes_; ++u) {
    const auto row = bfs_hops(g, u);
    for (node_id v = 0; v < num_nodes_; ++v) {
      const int d = row[static_cast<std::size_t>(v)];
      dist_[static_cast<std::size_t>(u) *
                static_cast<std::size_t>(num_nodes_) +
            static_cast<std::size_t>(v)] = d;
      if (d != k_infinite_hops) diameter_ = std::max(diameter_, d);
    }
  }
}

}  // namespace wsan::graph
