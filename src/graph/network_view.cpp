#include "graph/network_view.h"

#include <utility>

#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"

namespace wsan::graph {

network_view make_network_view(topo::topology topology,
                               std::vector<channel_t> channels) {
  network_view view;
  view.topology = std::move(topology);
  view.channels = std::move(channels);
  view.comm = build_communication_graph(view.topology, view.channels);
  view.reuse = build_channel_reuse_graph(view.topology, view.channels);
  view.reuse_hops = hop_matrix(view.reuse);
  return view;
}

}  // namespace wsan::graph
