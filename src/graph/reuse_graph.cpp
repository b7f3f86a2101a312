#include "graph/reuse_graph.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace wsan::graph {

namespace {

/// Probability that at least one of `window` packets on a link with the
/// given true PRR is received (i.e., the manager measures PRR > 0).
double detection_probability(double prr, int window) {
  if (prr <= 0.0) return 0.0;
  if (prr >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - prr, window);
}

/// Deterministic per-(u, v, channel) uniform deviate for the
/// measurement campaign, independent of iteration order.
double campaign_uniform(std::uint64_t seed, node_id u, node_id v,
                        channel_t ch) {
  std::uint64_t state = seed;
  state ^= splitmix64(state) + (static_cast<std::uint64_t>(u) << 40);
  state ^= splitmix64(state) + (static_cast<std::uint64_t>(v) << 20);
  state ^= splitmix64(state) + static_cast<std::uint64_t>(ch);
  rng gen(splitmix64(state));
  return gen.uniform01();
}

}  // namespace

graph build_channel_reuse_graph(const topo::topology& topo,
                                const std::vector<channel_t>& channels,
                                const reuse_graph_options& options) {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  WSAN_REQUIRE(options.measurement_window >= 0,
               "measurement window must be non-negative");
  WSAN_REQUIRE(options.min_detectable_prr > 0.0 &&
                   options.min_detectable_prr < 1.0,
               "detection floor must be in (0, 1)");
  graph g(topo.num_nodes());
  for (node_id u = 0; u < topo.num_nodes(); ++u) {
    for (node_id v = u + 1; v < topo.num_nodes(); ++v) {
      bool detected = false;
      if (options.measurement_window == 0) {
        detected =
            topo.max_prr(u, v, channels) >= options.min_detectable_prr ||
            topo.max_prr(v, u, channels) >= options.min_detectable_prr;
      } else {
        for (channel_t ch : channels) {
          const double p_uv = detection_probability(
              topo.prr(u, v, ch), options.measurement_window);
          const double p_vu = detection_probability(
              topo.prr(v, u, ch), options.measurement_window);
          // A uniform in [0, 1) is never below 0, so an undetectable
          // direction needs no draw; each draw seeds its own generator,
          // so skipping one moves no other.
          const auto heard = [&](node_id from, node_id to, double p) {
            return p > 0.0 && campaign_uniform(options.seed, from, to, ch) < p;
          };
          if (heard(u, v, p_uv) || heard(v, u, p_vu)) {
            detected = true;
            break;
          }
        }
      }
      if (detected) g.add_edge(u, v);
    }
  }
  return g;
}

}  // namespace wsan::graph
