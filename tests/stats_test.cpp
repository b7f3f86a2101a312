#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "stats/ks_test.h"
#include "stats/summary.h"

namespace wsan::stats {
namespace {

// ------------------------------------------------------------ ks test --

TEST(KsTest, StatisticOfIdenticalSamplesIsZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, a), 0.0);
}

TEST(KsTest, StatisticOfDisjointSamplesIsOne) {
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 2.0}, {10.0, 11.0}), 1.0);
}

TEST(KsTest, StatisticMatchesHandComputedCase) {
  // a = {1,2}, b = {1.5,2,3}: D = max|Fa - Fb|.
  // x=1: 1/2 - 0 = 0.5 ; x=1.5: 1/2 - 1/3 ; x=2: 1 - 2/3 ; x=3: 0.
  EXPECT_NEAR(ks_statistic({1.0, 2.0}, {1.5, 2.0, 3.0}), 0.5, 1e-12);
}

TEST(KsTest, StatisticIsSymmetric) {
  const std::vector<double> a{0.1, 0.5, 0.7, 0.9};
  const std::vector<double> b{0.2, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), ks_statistic(b, a));
}

TEST(KsTest, KolmogorovQBoundaries) {
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_NEAR(kolmogorov_q(10.0), 0.0, 1e-12);
  // Known reference value: Q(1.36) ~ 0.049 (the 5% critical point).
  EXPECT_NEAR(kolmogorov_q(1.36), 0.049, 0.002);
  // Continuity across the series switch at lambda = 0.3.
  EXPECT_NEAR(kolmogorov_q(0.299), kolmogorov_q(0.301), 1e-3);
}

TEST(KsTest, KolmogorovQIsDecreasing) {
  double prev = 1.0;
  for (double lambda = 0.05; lambda < 3.0; lambda += 0.05) {
    const double q = kolmogorov_q(lambda);
    EXPECT_LE(q, prev + 1e-12);
    prev = q;
  }
}

TEST(KsTest, SameDistributionIsRarelyRejected) {
  rng gen(17);
  int rejections = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 30; ++i) {
      a.push_back(gen.normal(0.9, 0.05));
      b.push_back(gen.normal(0.9, 0.05));
    }
    if (ks_test(a, b, 0.05).reject) ++rejections;
  }
  // Under H0 the rejection rate should be near alpha (and the asymptotic
  // approximation is conservative for small samples).
  EXPECT_LT(rejections, trials / 10);
}

TEST(KsTest, ShiftedDistributionIsReliablyRejected) {
  rng gen(19);
  int rejections = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 25; ++i) {
      a.push_back(gen.normal(0.95, 0.03));  // healthy link
      b.push_back(gen.normal(0.70, 0.10));  // degraded link
    }
    if (ks_test(a, b, 0.05).reject) ++rejections;
  }
  EXPECT_GT(rejections, 95);
}

TEST(KsTest, PValueDecreasesWithSampleSizeForFixedShift) {
  rng gen(23);
  std::vector<double> a_small;
  std::vector<double> b_small;
  std::vector<double> a_big;
  std::vector<double> b_big;
  for (int i = 0; i < 200; ++i) {
    const double x = gen.normal(0.9, 0.05);
    const double y = gen.normal(0.8, 0.05);
    if (i < 10) {
      a_small.push_back(x);
      b_small.push_back(y);
    }
    a_big.push_back(x);
    b_big.push_back(y);
  }
  EXPECT_LT(ks_test(a_big, b_big).p_value,
            ks_test(a_small, b_small).p_value + 1e-12);
}

TEST(KsTest, PermutationIsDeterministicPerSeed) {
  const std::vector<double> a{0.9, 0.95, 0.92, 0.97, 0.91};
  const std::vector<double> b{0.6, 0.7, 0.65, 0.55, 0.72};
  const auto r1 = ks_test_permutation(a, b, 0.05, 500, 7);
  const auto r2 = ks_test_permutation(a, b, 0.05, 500, 7);
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
  EXPECT_EQ(r1.reject, r2.reject);
}

TEST(KsTest, PermutationAgreesWithAsymptoticOnClearCases) {
  rng gen(41);
  std::vector<double> healthy;
  std::vector<double> degraded;
  for (int i = 0; i < 20; ++i) {
    healthy.push_back(gen.normal(0.95, 0.02));
    degraded.push_back(gen.normal(0.6, 0.08));
  }
  EXPECT_TRUE(ks_test_permutation(healthy, degraded).reject);
  EXPECT_TRUE(ks_test(healthy, degraded).reject);

  std::vector<double> same_a;
  std::vector<double> same_b;
  for (int i = 0; i < 20; ++i) {
    same_a.push_back(gen.normal(0.9, 0.05));
    same_b.push_back(gen.normal(0.9, 0.05));
  }
  EXPECT_FALSE(ks_test_permutation(same_a, same_b, 0.01).reject);
}

TEST(KsTest, PermutationMatchesExactProbabilityAtTinySamples) {
  // n = 4 per side, totally separated: D = 1 occurs for exactly the two
  // relabelings that keep the groups intact, so the exact p-value is
  // 2 / C(8,4) = 2/70 ~ 0.0286 (the Monte-Carlo estimate carries the +1
  // correction). The asymptotic approximation (0.011 here) is
  // anti-conservative at this size — the reason the permutation variant
  // exists.
  const std::vector<double> low{0.5, 0.52, 0.48, 0.51};
  const std::vector<double> high{0.95, 0.97, 0.96, 0.98};
  const auto perm = ks_test_permutation(low, high, 0.05, 8000, 3);
  EXPECT_NEAR(perm.p_value, 2.0 / 70.0, 0.01);
  EXPECT_TRUE(perm.reject);
  // The asymptotic variant underestimates the p-value at this size.
  EXPECT_LT(ks_test(low, high, 0.05).p_value, perm.p_value);
}

TEST(KsTest, PermutationAndAsymptoticPValuesConvergeAtModerateN) {
  // The detector's accuracy claims rest on the asymptotic p-value being
  // a faithful stand-in for the exact (permutation) one at the sample
  // sizes the network manager sees. At n >= ~20 per side the two must
  // agree within Monte-Carlo noise across the whole effect-size range,
  // from identical distributions to clearly separated ones.
  rng gen(53);
  for (const double shift : {0.0, 0.02, 0.05, 0.10}) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 40; ++i) {
      a.push_back(gen.normal(0.90, 0.05));
      b.push_back(gen.normal(0.90 - shift, 0.05));
    }
    const auto asym = ks_test(a, b, 0.05);
    const auto perm = ks_test_permutation(a, b, 0.05, 4000, 11);
    EXPECT_DOUBLE_EQ(asym.statistic, perm.statistic);
    EXPECT_NEAR(asym.p_value, perm.p_value, 0.06) << "shift=" << shift;
  }
}

TEST(KsTest, PermutationAndAsymptoticDecisionsAgreeOnSweep) {
  // Decision-level agreement over many matched samples: the two variants
  // may disagree only in a thin band around the significance threshold.
  rng gen(59);
  int disagreements = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const double shift = 0.04 * (t % 3);  // 0, mild, strong
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 30; ++i) {
      a.push_back(gen.normal(0.9, 0.05));
      b.push_back(gen.normal(0.9 - shift, 0.05));
    }
    const auto asym = ks_test(a, b, 0.05);
    const auto perm =
        ks_test_permutation(a, b, 0.05, 2000,
                            static_cast<std::uint64_t>(t) + 1);
    if (asym.reject != perm.reject) {
      ++disagreements;
      // Any disagreement must sit near the threshold, not be a gross
      // mismatch between the two p-value computations.
      EXPECT_NEAR(asym.p_value, 0.05, 0.05);
    }
  }
  EXPECT_LE(disagreements, trials / 10);
}

TEST(KsTest, PermutationPValueNeverZero) {
  const auto r = ks_test_permutation({1.0, 2.0}, {10.0, 11.0}, 0.05, 100,
                                     1);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_THROW(ks_test_permutation({1.0}, {2.0}, 0.05, 0),
               std::invalid_argument);
}

TEST(KsTest, RejectsInvalidInputs) {
  EXPECT_THROW(ks_statistic({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(ks_test({1.0}, {1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(kolmogorov_q(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------ summary --

TEST(Summary, BasicMoments) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, SingleSampleHasZeroStddev) {
  const auto s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
}

TEST(Summary, RejectsEmpty) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(make_box_stats({}), std::invalid_argument);
}

TEST(Summary, QuantileInterpolatesLinearly) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Summary, QuantileMatchesType7Reference) {
  // R: quantile(c(1,2,3,4,5), 0.4, type=7) = 2.6.
  EXPECT_NEAR(quantile({1, 2, 3, 4, 5}, 0.4), 2.6, 1e-12);
}

TEST(Summary, QuantileIsOrderInvariant) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5),
                   quantile({1.0, 2.0, 3.0}, 0.5));
}

TEST(Summary, WilsonIntervalBrackets) {
  // Reference: 80/100 at 95% -> approximately [0.711, 0.867].
  const auto ci = wilson_interval(80, 100);
  EXPECT_DOUBLE_EQ(ci.estimate, 0.8);
  EXPECT_NEAR(ci.low, 0.711, 0.005);
  EXPECT_NEAR(ci.high, 0.867, 0.005);
  EXPECT_LT(ci.low, ci.estimate);
  EXPECT_GT(ci.high, ci.estimate);
}

TEST(Summary, WilsonIntervalHandlesExtremes) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);  // zero successes still leave uncertainty
  const auto all = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(all.estimate, 1.0);
  EXPECT_LT(all.low, 1.0);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
}

TEST(Summary, WilsonIntervalShrinksWithTrials) {
  const auto small = wilson_interval(8, 10);
  const auto large = wilson_interval(800, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(Summary, WilsonIntervalRejectsBadInput) {
  EXPECT_THROW(wilson_interval(1, 0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(5, 4), std::invalid_argument);
  EXPECT_THROW(wilson_interval(-1, 4), std::invalid_argument);
}

TEST(Summary, WilsonIntervalZeroTrialsIsVacuous) {
  // A data point with no observations carries no information: the
  // estimate is 0 and the interval is the whole of [0, 1], never NaN.
  // (Benches hit this when --trials is tiny and every workload of a
  // point fails to generate.)
  const auto none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.estimate, 0.0);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_DOUBLE_EQ(none.high, 1.0);
  EXPECT_FALSE(std::isnan(none.estimate));
  EXPECT_FALSE(std::isnan(none.low));
  EXPECT_FALSE(std::isnan(none.high));
}

TEST(Summary, WilsonIntervalExtremesStayInUnitRange) {
  for (const int trials : {1, 2, 50, 1000}) {
    for (const int successes : {0, trials}) {
      const auto ci = wilson_interval(successes, trials);
      EXPECT_FALSE(std::isnan(ci.low));
      EXPECT_FALSE(std::isnan(ci.high));
      EXPECT_GE(ci.low, 0.0) << successes << "/" << trials;
      EXPECT_LE(ci.high, 1.0) << successes << "/" << trials;
      EXPECT_LE(ci.low, ci.estimate);
      EXPECT_GE(ci.high, ci.estimate);
    }
  }
}

TEST(Summary, BoxStatsAreOrdered) {
  rng gen(29);
  std::vector<double> v;
  for (int i = 0; i < 101; ++i) v.push_back(gen.uniform01());
  const auto b = make_box_stats(v);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_EQ(b.count, 101u);
}

}  // namespace
}  // namespace wsan::stats
