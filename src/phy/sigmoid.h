// The clamped logistic shared by every PRR-shaped curve in the PHY
// layer (prr_from_rssi, the capture-probability transition), and the
// reference for the simulator's batch_sigmoid.
#pragma once

#include <cmath>

namespace wsan::phy {

/// Saturation rail of the PRR sigmoid: beyond ±8 the logistic is
/// within 3.4e-4 of its asymptote, and the scalar models snap to
/// exactly 0/1 there so strong links are genuinely loss-free in
/// expectation and dead links genuinely dead (keeps graph construction
/// crisp). The fast simulator engine's branch-free batch_sigmoid
/// (common/batch_rng.h) snaps at this same rail, so both engines agree
/// exactly on strong and dead links (DESIGN.md §10).
inline constexpr double k_sigmoid_clamp = 8.0;

/// Logistic sigmoid with the 0/1 snap at the ±k_sigmoid_clamp rails.
inline double clamped_sigmoid(double x) {
  if (x > k_sigmoid_clamp) return 1.0;
  if (x < -k_sigmoid_clamp) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace wsan::phy
