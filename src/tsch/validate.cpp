#include "tsch/validate.h"

#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/error.h"

namespace wsan::tsch {

namespace {

std::string describe(const transmission& tx) {
  std::ostringstream os;
  os << "flow " << tx.flow << " instance " << tx.instance << " link "
     << tx.link_index << " attempt " << tx.attempt << " (" << tx.sender
     << "->" << tx.receiver << ")";
  return os.str();
}

}  // namespace

validation_result validate_schedule(const schedule& sched,
                                    const std::vector<flow::flow>& flows,
                                    const graph::hop_matrix& reuse_hops,
                                    const validation_options& options) {
  validation_result result;

  // 1. Transmission conflicts within each slot: every pair of the
  // transmissions in its cells, read from the cells themselves.
  std::vector<transmission> txs;
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    txs.clear();
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto cell = sched.cell(s, c);
      txs.insert(txs.end(), cell.begin(), cell.end());
    }
    for (std::size_t i = 0; i < txs.size(); ++i) {
      for (std::size_t j = i + 1; j < txs.size(); ++j) {
        if (txs[i].conflicts_with(txs[j])) {
          std::ostringstream os;
          os << "slot " << s << ": conflict between " << describe(txs[i])
             << " and " << describe(txs[j]);
          result.fail(os.str());
        }
      }
    }
  }

  // 2. Channel constraints within each cell.
  for (slot_t s = 0; s < sched.num_slots(); ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto cell = sched.cell(s, c);
      if (cell.size() < 2) continue;
      if (options.min_reuse_hops == k_infinite_hops) {
        std::ostringstream os;
        os << "slot " << s << " offset " << c
           << ": channel reuse present but reuse is forbidden";
        result.fail(os.str());
        continue;
      }
      for (auto i = cell.begin(); i != cell.end(); ++i) {
        for (auto j = cell.begin(); j != cell.end(); ++j) {
          if (i == j) continue;
          const int d = reuse_hops.hops(i->sender, j->receiver);
          if (d < options.min_reuse_hops) {
            std::ostringstream os;
            os << "slot " << s << " offset " << c << ": sender of "
               << describe(*i) << " is only " << d
               << " hops from receiver of " << describe(*j)
               << " (minimum " << options.min_reuse_hops << ")";
            result.fail(os.str());
          }
        }
      }
    }
  }

  // 3 & 4. Per-instance completeness, ordering, and window containment.
  const slot_t hp = sched.num_slots();
  // Collect placements keyed by (flow, instance, link, attempt).
  std::map<std::tuple<flow_id, int, int, int>, std::vector<slot_t>> seen;
  for (const auto& p : sched.placements()) {
    seen[{p.tx.flow, p.tx.instance, p.tx.link_index, p.tx.attempt}]
        .push_back(p.slot);
  }

  const int attempts_per_link = 1 + options.retries_per_link;
  for (const auto& f : flows) {
    const int instances = f.instances_in(hp);
    for (int r = 0; r < instances; ++r) {
      slot_t prev_slot = f.release_slot(r) - 1;
      for (int li = 0; li < static_cast<int>(f.route.size()); ++li) {
        for (int a = 0; a < attempts_per_link; ++a) {
          const auto it = seen.find({f.id, r, li, a});
          if (it == seen.end()) {
            std::ostringstream os;
            os << "flow " << f.id << " instance " << r << " link " << li
               << " attempt " << a << " is not scheduled";
            result.fail(os.str());
            continue;
          }
          if (it->second.size() != 1) {
            std::ostringstream os;
            os << "flow " << f.id << " instance " << r << " link " << li
               << " attempt " << a << " is scheduled "
               << it->second.size() << " times";
            result.fail(os.str());
          }
          const slot_t s = it->second.front();
          if (s <= prev_slot) {
            std::ostringstream os;
            os << "flow " << f.id << " instance " << r << " link " << li
               << " attempt " << a << " at slot " << s
               << " does not follow its predecessor (slot " << prev_slot
               << ")";
            result.fail(os.str());
          }
          if (s < f.release_slot(r) || s > f.deadline_slot(r)) {
            std::ostringstream os;
            os << "flow " << f.id << " instance " << r << " link " << li
               << " attempt " << a << " at slot " << s
               << " is outside [release=" << f.release_slot(r)
               << ", deadline=" << f.deadline_slot(r) << "]";
            result.fail(os.str());
          }
          prev_slot = s;
        }
      }
    }
  }

  // No foreign transmissions: every placement belongs to a known flow.
  for (const auto& p : sched.placements()) {
    if (p.tx.flow < 0 || p.tx.flow >= static_cast<flow_id>(flows.size())) {
      std::ostringstream os;
      os << "placement references unknown flow " << p.tx.flow;
      result.fail(os.str());
    }
  }

  return result;
}

}  // namespace wsan::tsch
