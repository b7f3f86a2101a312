#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "phy/capture.h"
#include "phy/channel.h"
#include "phy/dbm.h"
#include "phy/link_model.h"
#include "phy/path_loss.h"
#include "phy/position.h"

namespace wsan::phy {
namespace {

// ---------------------------------------------------------------- dbm --

TEST(Dbm, RoundTrips) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(1.0), 0.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-87.3)), -87.3, 1e-9);
}

TEST(Dbm, SumOfEqualPowersAddsThreeDb) {
  EXPECT_NEAR(dbm_sum(-90.0, -90.0), -90.0 + 10.0 * std::log10(2.0), 1e-9);
}

TEST(Dbm, SumIsDominatedByStrongerTerm) {
  EXPECT_NEAR(dbm_sum(-50.0, -120.0), -50.0, 1e-3);
}

// ------------------------------------------------------------ channel --

TEST(Channel, ValidityRange) {
  EXPECT_FALSE(is_valid_channel(10));
  EXPECT_TRUE(is_valid_channel(11));
  EXPECT_TRUE(is_valid_channel(26));
  EXPECT_FALSE(is_valid_channel(27));
}

TEST(Channel, CenterFrequencies) {
  EXPECT_DOUBLE_EQ(center_frequency_mhz(11), 2405.0);
  EXPECT_DOUBLE_EQ(center_frequency_mhz(26), 2480.0);
  EXPECT_THROW(center_frequency_mhz(9), std::invalid_argument);
}

TEST(Channel, ChannelsReturnsPrefix) {
  const auto four = channels(4);
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four.front(), 11);
  EXPECT_EQ(four.back(), 14);
  EXPECT_THROW(channels(0), std::invalid_argument);
  EXPECT_THROW(channels(17), std::invalid_argument);
}

TEST(Channel, WifiChannel1OverlapsIeee11To14) {
  // The paper's experiment: WiFi channel 1 interferes with 802.15.4
  // channels 11-14 (Section VII-E).
  for (channel_t ch = 11; ch <= 14; ++ch)
    EXPECT_TRUE(wifi_overlaps(1, ch)) << "channel " << ch;
  for (channel_t ch = 15; ch <= 26; ++ch)
    EXPECT_FALSE(wifi_overlaps(1, ch)) << "channel " << ch;
}

TEST(Channel, WifiChannel6OverlapsMidBand) {
  EXPECT_FALSE(wifi_overlaps(6, 14));
  EXPECT_TRUE(wifi_overlaps(6, 17));
  EXPECT_TRUE(wifi_overlaps(6, 19));
  EXPECT_FALSE(wifi_overlaps(6, 21));
}

// ----------------------------------------------------------- position --

TEST(Position, SameFloorDistanceIsEuclidean) {
  const position a{0.0, 0.0, 0};
  const position b{3.0, 4.0, 0};
  EXPECT_DOUBLE_EQ(distance_m(a, b), 5.0);
  EXPECT_EQ(floors_between(a, b), 0);
}

TEST(Position, CrossFloorDistanceIncludesHeight) {
  const position a{0.0, 0.0, 0};
  const position b{0.0, 0.0, 1};
  EXPECT_DOUBLE_EQ(distance_m(a, b), k_floor_height_m);
  EXPECT_EQ(floors_between(a, b), 1);
  EXPECT_EQ(floors_between(b, a), 1);
}

// ---------------------------------------------------------- path loss --

TEST(PathLoss, IncreasesWithDistance) {
  path_loss_params p;
  EXPECT_LT(mean_path_loss_db(p, 5.0, 0), mean_path_loss_db(p, 20.0, 0));
}

TEST(PathLoss, ReferenceDistanceClampsBelow) {
  path_loss_params p;
  EXPECT_DOUBLE_EQ(mean_path_loss_db(p, 0.2, 0),
                   mean_path_loss_db(p, p.reference_distance_m, 0));
}

TEST(PathLoss, FloorsAddAttenuation) {
  path_loss_params p;
  EXPECT_DOUBLE_EQ(
      mean_path_loss_db(p, 10.0, 2) - mean_path_loss_db(p, 10.0, 0),
      2.0 * p.floor_attenuation_db);
}

TEST(PathLoss, FollowsLogDistanceSlope) {
  path_loss_params p;
  p.exponent = 3.0;
  // One decade of distance adds 10 * n dB.
  EXPECT_NEAR(mean_path_loss_db(p, 100.0, 0) - mean_path_loss_db(p, 10.0, 0),
              30.0, 1e-9);
}

TEST(PathLoss, RejectsNegativeInputs) {
  path_loss_params p;
  EXPECT_THROW(mean_path_loss_db(p, -1.0, 0), std::invalid_argument);
  EXPECT_THROW(mean_path_loss_db(p, 1.0, -1), std::invalid_argument);
}

// --------------------------------------------------------- link model --

TEST(LinkModel, SigmoidAnchorsAtSensitivity) {
  link_model_params p;
  EXPECT_NEAR(prr_from_rssi(p, p.sensitivity_dbm), 0.5, 1e-9);
}

TEST(LinkModel, StrongLinksArePerfect) {
  link_model_params p;
  EXPECT_DOUBLE_EQ(prr_from_rssi(p, p.sensitivity_dbm + 30.0), 1.0);
}

TEST(LinkModel, DeadLinksAreZero) {
  link_model_params p;
  EXPECT_DOUBLE_EQ(prr_from_rssi(p, p.sensitivity_dbm - 30.0), 0.0);
}

TEST(LinkModel, PrrIsMonotoneInRssi) {
  link_model_params p;
  double prev = -1.0;
  for (double rssi = -110.0; rssi <= -60.0; rssi += 1.0) {
    const double prr = prr_from_rssi(p, rssi);
    EXPECT_GE(prr, prev);
    prev = prr;
  }
}

TEST(LinkModel, RssiFromPrrRoundTrips) {
  link_model_params p;
  for (double prr : {0.05, 0.3, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(prr_from_rssi(p, rssi_from_prr(p, prr)), prr, 1e-9);
  }
}

TEST(LinkModel, RssiFromPrrHandlesExtremes) {
  link_model_params p;
  EXPECT_DOUBLE_EQ(prr_from_rssi(p, rssi_from_prr(p, 0.0)), 0.0);
  EXPECT_DOUBLE_EQ(prr_from_rssi(p, rssi_from_prr(p, 1.0)), 1.0);
  EXPECT_THROW(rssi_from_prr(p, 1.5), std::invalid_argument);
}

TEST(LinkModel, PrrFromSnrMatchesRssiPath) {
  link_model_params p;
  const double snr = 12.0;
  EXPECT_DOUBLE_EQ(prr_from_snr(p, snr),
                   prr_from_rssi(p, p.noise_floor_dbm + snr));
}

// ------------------------------------------------------------ capture --

TEST(Capture, NoInterferenceReducesToStandalonePrr) {
  capture_params p;
  const double signal = p.link.sensitivity_dbm + 5.0;
  EXPECT_DOUBLE_EQ(reception_probability(p, signal, {}),
                   prr_from_rssi(p.link, signal));
}

TEST(Capture, StrongSignalSurvivesWeakInterferer) {
  capture_params p;
  const double signal = -60.0;
  const double prob = reception_probability(p, signal, {-95.0});
  EXPECT_GT(prob, 0.99);
}

TEST(Capture, ComparableInterfererBreaksReception) {
  capture_params p;
  const double signal = -80.0;
  const double prob = reception_probability(p, signal, {-80.0});
  EXPECT_LT(prob, 0.3);
}

TEST(Capture, InterferenceIsCumulative) {
  capture_params p;
  const double signal = -80.0;
  const double one = reception_probability(p, signal, {-92.0});
  const double three =
      reception_probability(p, signal, {-92.0, -92.0, -92.0});
  EXPECT_LT(three, one);
}

TEST(Capture, SinrMathIsConsistent) {
  // Signal -80, one interferer -90, noise -98: SINR just under 10 dB.
  const double sinr = sinr_db(-80.0, {-90.0}, -98.0);
  EXPECT_LT(sinr, 10.0);
  EXPECT_GT(sinr, 9.0);
  // No interferers: SINR = SNR.
  EXPECT_DOUBLE_EQ(sinr_db(-80.0, {}, -98.0), 18.0);
}

TEST(Capture, ProbabilityMonotoneInInterfererPower) {
  capture_params p;
  const double signal = -82.0;
  double prev = 2.0;
  for (double intf = -100.0; intf <= -70.0; intf += 2.0) {
    const double prob = reception_probability(p, signal, {intf});
    EXPECT_LE(prob, prev + 1e-12);
    prev = prob;
  }
}

TEST(Capture, PointerOverloadMatchesVectorOnEdgeCases) {
  capture_params p;
  const double signal = -78.0;
  // Empty (nullptr is explicitly allowed when count is 0).
  EXPECT_DOUBLE_EQ(reception_probability(p, signal, nullptr, 0),
                   reception_probability(p, signal, {}));
  // One interferer.
  const double one = -88.0;
  EXPECT_DOUBLE_EQ(reception_probability(p, signal, &one, 1),
                   reception_probability(p, signal, {one}));
  // Many interferers.
  const std::vector<double> many = {-95.0, -82.0, -91.5, -79.0, -99.9};
  EXPECT_DOUBLE_EQ(
      reception_probability(p, signal, many.data(), many.size()),
      reception_probability(p, signal, many));
  EXPECT_DOUBLE_EQ(sinr_db(signal, nullptr, 0, p.link.noise_floor_dbm),
                   sinr_db(signal, {}, p.link.noise_floor_dbm));
  EXPECT_DOUBLE_EQ(
      sinr_db(signal, many.data(), many.size(), p.link.noise_floor_dbm),
      sinr_db(signal, many, p.link.noise_floor_dbm));
}

TEST(Capture, PointerOverloadMatchesVectorOnRandomInputs) {
  // Bit-identical on random signal/interferer sets: the vector overloads
  // the naive simulator engine calls delegate to the pointer overloads,
  // and both forms must agree exactly.
  capture_params p;
  rng gen(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const double signal = -100.0 + 50.0 * gen.uniform01();
    const auto count = static_cast<std::size_t>(gen.uniform_int(0, 8));
    std::vector<double> interference;
    for (std::size_t i = 0; i < count; ++i)
      interference.push_back(-110.0 + 60.0 * gen.uniform01());
    EXPECT_DOUBLE_EQ(
        reception_probability(p, signal, interference.data(),
                              interference.size()),
        reception_probability(p, signal, interference))
        << "trial " << trial << " count " << count;
    EXPECT_DOUBLE_EQ(sinr_db(signal, interference.data(),
                             interference.size(), p.link.noise_floor_dbm),
                     sinr_db(signal, interference, p.link.noise_floor_dbm))
        << "trial " << trial << " count " << count;
  }
}

}  // namespace
}  // namespace wsan::phy
