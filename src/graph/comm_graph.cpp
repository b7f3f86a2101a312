#include "graph/comm_graph.h"

#include "common/error.h"

namespace wsan::graph {

graph build_communication_graph(const topo::topology& topo,
                                const std::vector<channel_t>& channels,
                                const comm_graph_options& options) {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  WSAN_REQUIRE(options.prr_threshold > 0.0 && options.prr_threshold <= 1.0,
               "PRR threshold must be in (0, 1]");
  // A direction is reliable unless some channel reads below PRR_t; the
  // first such channel settles it. `prr < t` is false for a NaN, which
  // therefore never rejects a link, as topology::min_prr ignores it.
  const auto reliable = [&](node_id from, node_id to) {
    for (const channel_t ch : channels)
      if (topo.prr(from, to, ch) < options.prr_threshold) return false;
    return true;
  };
  graph g(topo.num_nodes());
  for (node_id u = 0; u < topo.num_nodes(); ++u)
    for (node_id v = u + 1; v < topo.num_nodes(); ++v)
      if (reliable(u, v) && reliable(v, u)) g.add_edge(u, v);
  return g;
}

}  // namespace wsan::graph
