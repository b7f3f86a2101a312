// SINR-based reception with capture effect.
//
// The paper's channel-reuse policy relies on the capture effect: when two
// transmissions share a channel, a receiver still decodes its packet if
// its signal sufficiently dominates the interference (Section IV-C). This
// model computes the success probability of a reception given the desired
// signal power and the set of concurrent interfering powers. Interference
// is cumulative (Maheshwari et al., cited as [6][7] in the paper): more
// concurrent transmitters on a channel lower the SINR further.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/link_model.h"

namespace wsan::phy {

struct capture_params {
  /// SINR (dB) at which capture succeeds half the time. Measured
  /// co-channel 802.15.4 capture sits around 3-5 dB SIR.
  double capture_threshold_db = 4.0;
  /// Width of the soft capture transition (dB). Measured PRR-vs-SINR
  /// curves have a wide grey region (~6 dB) rather than a sharp knee.
  double transition_width_db = 6.0;
  link_model_params link;
};

/// Success probability of receiving a packet with the given received
/// signal power while the given interfering powers (all in dBm, all on the
/// same physical channel at the receiver) are simultaneously active.
///
/// With no interference this reduces to the standalone PRR of the link.
/// With interference, the standalone PRR is multiplied by a soft capture
/// probability driven by the SINR margin over the capture threshold.
double reception_probability(const capture_params& params, double signal_dbm,
                             const std::vector<double>& interference_dbm);

/// Allocation-free variant over a raw interferer array, which the
/// vector overload delegates to. `interference_dbm` may be nullptr when
/// `count` is 0. Bit-identical to the vector overload on the same
/// values in the same order.
double reception_probability(const capture_params& params, double signal_dbm,
                             const double* interference_dbm,
                             std::size_t count);

/// SINR in dB given signal and interferer powers plus the noise floor.
double sinr_db(double signal_dbm, const std::vector<double>& interference_dbm,
               double noise_floor_dbm);

/// Allocation-free variant of sinr_db over a raw interferer array.
double sinr_db(double signal_dbm, const double* interference_dbm,
               std::size_t count, double noise_floor_dbm);

}  // namespace wsan::phy
