// Latency statistics of the benchmark.
//
// A timing is reported as its median and as a tail percentile. The
// tail rule: a percentile is admissible only when at least ten samples
// lie beyond it, and the highest admissible rung of the ladder
// p50 < p90 < p99 < p99.9 is the one a sample count supports. Percentiles
// are nearest-rank: p of n sorted samples is the sample at rank
// ceil(p * n / 100), so exactly n - rank samples lie beyond it.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile ladder, in per-mille (500 = p50, 999 = p99.9).
inline constexpr int k_ladder_permille[] = {500, 900, 990, 999};

/// Samples that lie beyond the nearest-rank percentile `permille` of n.
std::size_t samples_beyond(std::size_t n, int permille);

/// The highest ladder percentile (in per-mille) with at least ten
/// samples beyond it, or 0 when not even p50 qualifies (n < 20).
int highest_tail_permille(std::size_t n);

/// Nearest-rank percentile of `values` (need not be sorted). 0 when
/// empty.
double percentile(std::vector<double> values, int permille);

}  // namespace perfbench
