// The network manager's view of a deployment (Sections III and IV-B).
//
// From the topology it collected and the channels in use, the manager
// derives two graphs: the communication graph G_c (links with PRR >=
// PRR_t on every channel; routes run on it) and the channel-reuse graph
// G_R (pairs with measured PRR > 0 on any channel). RC measures
// interference as hop distance on G_R, so the view also caches G_R's
// hop matrix. make_network_view is the one place these are derived,
// with the paper's defaults (comm_graph_options, reuse_graph_options);
// every caller says only which topology and which channels it uses.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/hop_matrix.h"
#include "topo/topology.h"

namespace wsan::graph {

struct network_view {
  topo::topology topology;
  std::vector<channel_t> channels;
  graph comm;
  graph reuse;
  hop_matrix reuse_hops;
};

/// Builds G_c, G_R and G_R's hop matrix of `topology` on `channels`.
/// Both are taken by value: move them in to avoid a copy.
network_view make_network_view(topo::topology topology,
                               std::vector<channel_t> channels);

}  // namespace wsan::graph
