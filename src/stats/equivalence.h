// Statistical-equivalence gate: a family of two-sample K-S tests with a
// Bonferroni-adjusted per-group level plus one pooled test (DESIGN.md
// §10).
//
// The simulator's fast engine is not bit-comparable to the naive
// reference engine once fading, drift, interferers or probes are on —
// it draws the same distributions through different transforms and
// streams — so its correctness contract there is statistical: for
// every observable sample stream (per-link PRR in reuse and
// contention-free slots, pooled across seeds), a two-sample K-S test
// between the reference's stream and the candidate's stream must fail
// to reject the null "same distribution". With m testable groups
// the per-group level is alpha / m (Bonferroni), so the family-wise
// false-alarm rate stays at alpha no matter how many links the
// scenario produces; the pooled stream is additionally tested at the
// full alpha to catch small shifts spread across every group that no
// single under-powered per-group test would see. Both sides are fully
// deterministic per (config, seed), so a green gate cannot flake.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats/ks_test.h"

namespace wsan::stats {

struct ks_gate_config {
  /// Family-wise significance level. Per-group tests run at alpha / m
  /// where m is the number of groups with enough samples on both sides;
  /// the pooled test runs at alpha.
  double alpha = 0.01;
  /// Groups with fewer samples than this on either side are skipped
  /// (tested = false): the asymptotic K-S p-value is unreliable below
  /// ~8 per side, and tiny streams carry no power anyway. Their
  /// samples still count through the pooled test.
  std::size_t min_samples = 8;
};

/// One named sample group: the same observable drawn under the
/// reference (oracle) kernel and under the candidate kernel.
struct ks_gate_group {
  std::string name;
  std::vector<double> reference;
  std::vector<double> candidate;
};

/// Outcome of one group's test.
struct ks_gate_finding {
  std::string name;
  std::size_t n_reference = 0;
  std::size_t n_candidate = 0;
  double statistic = 0.0;
  double p_value = 1.0;
  /// Significance level this group was tested at (alpha / m).
  double alpha = 0.0;
  /// False when the group was skipped for want of samples.
  bool tested = false;
  bool reject = false;
};

struct ks_gate_result {
  std::vector<ks_gate_finding> groups;
  /// K-S over the concatenation of every group's samples, at full alpha.
  ks_gate_finding pooled;
  /// Number of groups actually tested (the Bonferroni m).
  std::size_t tested_groups = 0;
  /// True iff no tested group and not the pooled stream rejected.
  bool passed = false;

  /// Human-readable verdict: the pass/fail line, the pooled test, and
  /// every rejecting (or, when all pass, the tightest) group — what a
  /// CI log should show on failure.
  std::string summary() const;
};

/// Runs the gate over the given groups. Deterministic; no RNG.
ks_gate_result ks_equivalence_gate(const std::vector<ks_gate_group>& groups,
                                   const ks_gate_config& config = {});

}  // namespace wsan::stats
