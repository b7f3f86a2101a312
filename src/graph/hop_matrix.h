// Cached all-pairs hop distances.
//
// The channel-reuse constraint (Section V-A, constraint 2b) queries hop
// distances on G_R for every candidate slot/offset, so distances are
// precomputed once per scheduling run.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "graph/graph.h"

namespace wsan::graph {

class hop_matrix {
 public:
  hop_matrix() = default;
  explicit hop_matrix(const graph& g);

  int num_nodes() const { return num_nodes_; }

  /// Hop distance between u and v; k_infinite_hops when unreachable.
  /// Inline: constraint 2b calls it for every transmission of every
  /// probed cell.
  int hops(node_id u, node_id v) const {
    WSAN_REQUIRE(u >= 0 && u < num_nodes_, "node id out of range");
    WSAN_REQUIRE(v >= 0 && v < num_nodes_, "node id out of range");
    return dist_[static_cast<std::size_t>(u) *
                     static_cast<std::size_t>(num_nodes_) +
                 static_cast<std::size_t>(v)];
  }

  /// Maximum finite pairwise distance (the network diameter lambda_R used
  /// to seed rho in Algorithm 1).
  int diameter() const { return diameter_; }

 private:
  int num_nodes_ = 0;
  int diameter_ = 0;
  std::vector<int> dist_;  // dense n*n
};

}  // namespace wsan::graph
