#include "checks.h"

#include <sstream>

#include "tsch/validate.h"

namespace perfbench {

using namespace wsan;

std::string check_schedule(const tsch::schedule& sched,
                           const std::vector<flow::flow>& flows,
                           const graph::hop_matrix& reuse_hops,
                           core::algorithm algo, int rho_t) {
  tsch::validation_options options;
  options.min_reuse_hops =
      algo == core::algorithm::nr ? k_infinite_hops : rho_t;
  const auto result =
      tsch::validate_schedule(sched, flows, reuse_hops, options);
  if (result.ok) return {};
  return core::to_string(algo) + " schedule invalid: " +
         result.violations.front();
}

std::string check_pdr_range(const std::vector<double>& flow_pdr) {
  for (std::size_t i = 0; i < flow_pdr.size(); ++i) {
    if (!(flow_pdr[i] >= 0.0 && flow_pdr[i] <= 1.0)) {
      std::ostringstream os;
      os << "flow " << i << " PDR " << flow_pdr[i] << " outside [0, 1]";
      return os.str();
    }
  }
  return {};
}

std::string check_mean_pdr(const std::string& algo, double mean, double low,
                           double high) {
  if (mean >= low && mean <= high) return {};
  std::ostringstream os;
  os << algo << " mean PDR " << mean << " outside [" << low << ", " << high
     << "]";
  return os.str();
}

std::string check_digest(const std::string& what, std::uint64_t got,
                         std::uint64_t expected) {
  if (got == expected) return {};
  std::ostringstream os;
  os << what << " digest " << got << " != reference " << expected;
  return os.str();
}

std::string check_same_placements(const tsch::schedule& got,
                                  const tsch::schedule& expected) {
  if (got.num_slots() != expected.num_slots() ||
      got.num_offsets() != expected.num_offsets())
    return "schedule grids differ";
  const auto& a = got.placements();
  const auto& b = expected.placements();
  if (a.size() != b.size()) return "placement counts differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      std::ostringstream os;
      os << "placement " << i << " differs (slot " << a[i].slot << " vs "
         << b[i].slot << ", offset " << a[i].offset << " vs " << b[i].offset
         << ")";
      return os.str();
    }
  }
  return {};
}

std::int64_t shared_placements(const tsch::schedule& sched) {
  std::int64_t shared = 0;
  for (const auto& p : sched.placements())
    if (sched.cell_load(p.slot, p.offset) > 1) ++shared;
  return shared;
}

std::vector<std::string> path_guard(const path_evidence& evidence) {
  std::vector<std::string> missed;
  if (evidence.expect_reuse) {
    if (!(evidence.shared_placement_share > 0.0))
      missed.push_back("no placement landed in a shared cell");
    if (evidence.simulated && !(evidence.reuse_attempt_share > 0.0))
      missed.push_back("no data attempt fell in a reuse slot");
  } else if (!(evidence.shared_placement_share < k_bypass_share)) {
    missed.push_back("the bypass workload placed into shared cells");
  }
  return missed;
}

}  // namespace perfbench
