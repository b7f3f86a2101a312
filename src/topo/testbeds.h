// Synthetic testbed topology generators.
//
// The paper evaluates on (a) the 80-node Indriya testbed at NUS and
// (b) the 60-node WUSTL testbed spanning three floors. We do not have the
// measured 16-channel PRR matrices, so we synthesize deployments of the
// same scale and structure: multi-floor grids with placement jitter,
// log-distance path loss with floor attenuation, log-normal shadowing per
// link, and frequency-selective fading per (link, channel). See
// DESIGN.md §2 for why this preserves the behaviour the algorithms
// depend on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "topo/topology.h"

namespace wsan::topo {

struct testbed_params {
  std::string name = "testbed";
  int num_nodes = 60;
  int num_floors = 3;
  double floor_width_m = 40.0;
  double floor_depth_m = 25.0;
  double placement_jitter_m = 2.0;
  double tx_power_dbm = 0.0;  ///< paper: 0 dBm on the WUSTL testbed
  /// Asymmetry noise between the two directions of a link (dB).
  double asymmetry_sigma_db = 1.0;
  phy::path_loss_params path_loss;
  phy::link_model_params link_model;
};

/// Builds a testbed from explicit parameters, deterministically from seed.
topology make_testbed(const testbed_params& params, std::uint64_t seed);

/// 80-node, 3-floor deployment modeled on the Indriya testbed's scale.
topology make_indriya(std::uint64_t seed = 1);

/// 60-node, 3-floor deployment modeled on the WUSTL testbed's scale.
topology make_wustl(std::uint64_t seed = 2);

/// The testbed called `name` ("indriya" or "wustl"), built from `seed`,
/// or without one from that testbed's default seed above — the seed
/// every figure uses. Throws std::invalid_argument on any other name.
topology make_named_testbed(const std::string& name,
                            std::optional<std::uint64_t> seed = {});

}  // namespace wsan::topo
