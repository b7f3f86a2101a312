// Cached all-pairs hop distances and hop balls.
//
// The channel-reuse constraint (Section V-A, constraint 2b) queries hop
// distances on G_R for every candidate slot/offset, so distances are
// precomputed once per scheduling run.
//
// Besides the distances, the matrix keeps every node's hop balls
// ball(u, rho) = {y : hops(u, y) < rho} as node bitsets, one per
// finite rho in [0, diameter + 1] (every larger rho has the same ball:
// all nodes reachable from u). With a cell's senders and receivers as
// node bitsets too (tsch::schedule's cell node masks), constraint 2b
// for u->v joining the cell is
//
//   (receivers & ball(u, rho)) | (senders & ball(v, rho)) == 0,
//
// a few word operations instead of two distance lookups per occupant.
// G_R is undirected, so hops(x, v) == hops(v, x) and one family of
// balls serves both directions of 2b. Unreachable nodes are never
// inside a ball.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

  /// 64-bit words per ball bitset: enough for num_nodes() bits.
  std::size_t ball_words() const { return ball_words_; }

  /// The ball {y : hops(u, y) < rho} as a bitset of ball_words() words
  /// (bit y set iff y is inside). `rho` must be finite; every rho above
  /// diameter() + 1 shares the ball of diameter() + 1.
  const std::uint64_t* ball(node_id u, int rho) const {
    WSAN_REQUIRE(u >= 0 && u < num_nodes_, "node id out of range");
    WSAN_REQUIRE(rho >= 0 && rho != k_infinite_hops,
                 "ball radius must be finite and non-negative");
    const auto radius = static_cast<std::size_t>(std::min(rho, diameter_ + 1));
    return balls_.data() +
           (static_cast<std::size_t>(u) * radii() + radius) * ball_words_;
  }

 private:
  /// Radii stored per node: 0 .. diameter() + 1.
  std::size_t radii() const {
    return static_cast<std::size_t>(diameter_) + 2;
  }

  int num_nodes_ = 0;
  int diameter_ = 0;
  std::vector<int> dist_;  // dense n*n
  std::size_t ball_words_ = 0;
  std::vector<std::uint64_t> balls_;  // n x radii() x ball_words_
};

}  // namespace wsan::graph
