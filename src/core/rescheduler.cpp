#include "core/rescheduler.h"

#include <algorithm>

#include "common/error.h"

namespace wsan::core {

shed_result schedule_shedding(std::vector<flow::flow> flows,
                              const graph::hop_matrix& reuse_hops,
                              const scheduler_config& config) {
  // Ids are priority ranks, but nothing guarantees the input arrives
  // sorted or dense (only recover()'s renumbering path does). Sort by
  // id so "lowest priority" is the actual highest id — shedding
  // flows.back() of an unsorted input would drop an arbitrary flow.
  std::sort(flows.begin(), flows.end(),
            [](const flow::flow& a, const flow::flow& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < flows.size(); ++i)
    WSAN_REQUIRE(flows[i - 1].id != flows[i].id,
                 "flow ids must be distinct (they are priority ranks)");

  shed_result out;
  while (!flows.empty()) {
    // The scheduler wants dense ids; schedule a renumbered copy and
    // keep the input ids as the reporting currency.
    std::vector<flow::flow> dense = flows;
    for (std::size_t i = 0; i < dense.size(); ++i)
      dense[i].id = static_cast<flow_id>(i);
    out.result = schedule_flows(dense, reuse_hops, config);
    if (out.result.schedulable) break;
    out.shed.push_back(flows.back().id);
    flows.pop_back();
  }
  if (flows.empty()) {
    // Everything was shed (or the workload was empty to begin with):
    // the empty workload is trivially schedulable with an empty grid.
    out.result = schedule_result{};
    out.result.schedulable = true;
  }
  out.kept_input_ids.reserve(flows.size());
  for (const auto& f : flows) out.kept_input_ids.push_back(f.id);
  for (std::size_t i = 0; i < flows.size(); ++i)
    flows[i].id = static_cast<flow_id>(i);
  out.kept = std::move(flows);
  return out;
}

}  // namespace wsan::core
