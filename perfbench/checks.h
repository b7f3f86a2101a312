// Output checks and the path guard of the benchmark.
//
// Every check returns an empty string when the output is correct and a
// one-line reason otherwise. They run outside the timed region; the
// driver counts each failing op into `failed` and exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "flow/flow.h"
#include "graph/hop_matrix.h"
#include "tsch/schedule.h"

namespace perfbench {

/// tsch::validate_schedule under the algorithm's reuse rule: NR may not
/// share a cell at all, RA and RC only at >= rho_t hops.
std::string check_schedule(const wsan::tsch::schedule& sched,
                           const std::vector<wsan::flow::flow>& flows,
                           const wsan::graph::hop_matrix& reuse_hops,
                           wsan::core::algorithm algo, int rho_t);

/// Every per-flow PDR lies in [0, 1].
std::string check_pdr_range(const std::vector<double>& flow_pdr);

/// Mean PDR of one algorithm lies in [low, high].
std::string check_mean_pdr(const std::string& algo, double mean, double low,
                           double high);

/// A digest equals the reference digest.
std::string check_digest(const std::string& what, std::uint64_t got,
                         std::uint64_t expected);

/// Two schedules hold the same placements (same cells, same order) —
/// the delta scheduler's canonical-state contract.
std::string check_same_placements(const wsan::tsch::schedule& got,
                                  const wsan::tsch::schedule& expected);

/// Placements whose cell holds more than one transmission.
std::int64_t shared_placements(const wsan::tsch::schedule& sched);

/// The path a workload must take: `reuse` workloads must place into
/// shared cells (and, when simulated, attempt in reuse slots); on the
/// bypass workload reuse must stay below k_bypass_share. (Over a long
/// run RC reuses in a handful of scenario epochs, about 5e-5 of the
/// placements, so exact zero would reject seeds that bypass the path in
/// every way that matters for time.)
inline constexpr double k_bypass_share = 1e-3;

struct path_evidence {
  bool expect_reuse = true;
  bool simulated = false;
  double shared_placement_share = 0.0;
  double reuse_attempt_share = 0.0;
};

/// Empty when the workload took its path, else the reasons it did not.
std::vector<std::string> path_guard(const path_evidence& evidence);

}  // namespace perfbench
