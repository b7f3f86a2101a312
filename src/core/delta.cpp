#include "core/delta.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "obs/trace.h"

namespace wsan::core {

delta_scheduler::delta_scheduler(const graph::hop_matrix& reuse_hops,
                                 scheduler_config config)
    : reuse_hops_(&reuse_hops), config_(std::move(config)) {
  validate_config(config_);
}

std::size_t delta_scheduler::placements_of(flow_id id) const {
  std::size_t n = 0;
  for (const auto& p : sched_.placements())
    if (p.tx.flow == id) ++n;
  return n;
}

bool delta_scheduler::resume(tsch::schedule& sched, const flow::flow& f,
                             std::vector<int>& rho,
                             scheduler_stats& stats) const {
  int r = rho.empty() ? k_infinite_hops : rho.back();
  const int end = f.instances_in(sched.num_slots());
  for (auto i = static_cast<int>(rho.size()); i < end; ++i) {
    if (!schedule_flow_into(sched, f, i, i + 1, r, *reuse_hops_, config_,
                            stats))
      return false;
    rho.push_back(r);
  }
  return true;
}

delta_scheduler::admit_outcome delta_scheduler::admit_flow(flow::flow f) {
  OBS_SPAN("core.delta.admit");
  f.id = static_cast<flow_id>(flows_.size());
  flow::validate_flow(f);

  admit_outcome out;
  scheduler_stats stats;
  std::vector<int> rho;
  const slot_t hp =
      flows_.empty() ? f.period : std::lcm(sched_.num_slots(), f.period);
  if (!schedulable()) {
    // The prefix already fails, and it fails the same way on any
    // multiple of the hyperperiod, so schedule_flows refuses flows()+f
    // too: the verdict needs no rerun.
  } else if (hp == sched_.num_slots()) {
    // Resume the greedy exactly where schedule_flows(flows_) stopped:
    // the new flow has the lowest priority, so its placements against
    // the existing occupancy equal those of a full rerun — and so does
    // the rejection verdict. On failure the partial placements are
    // rolled back, leaving the canonical state untouched.
    out.admitted = resume(sched_, f, rho, stats);
    if (!out.admitted) sched_.remove_flows_from(f.id);
  } else {
    // Hyperperiod growth (or the first flow). Block 0 of the new grid is
    // the current schedule; each flow resumes its greedy over the new
    // blocks from the rho its last instance ended with. Copying flow by
    // flow keeps the oracle's flow-major placement order, and a flow's
    // new blocks only read slots its predecessors have already filled.
    tsch::schedule grown(hp, config_.num_channels);
    const auto& old = sched_.placements();
    std::size_t p = 0;
    out.admitted = true;
    for (std::size_t i = 0; i < flows_.size() && out.admitted; ++i) {
      for (; p < old.size() && old[p].tx.flow == flows_[i].id; ++p)
        grown.add(old[p].tx, old[p].slot, old[p].offset);
      out.admitted = resume(grown, flows_[i], rho_[i], stats);
    }
    out.admitted = out.admitted && resume(grown, f, rho, stats);
    if (out.admitted) {
      sched_ = std::move(grown);
    } else {
      for (std::size_t i = 0; i < flows_.size(); ++i)
        rho_[i].resize(static_cast<std::size_t>(
            flows_[i].instances_in(sched_.num_slots())));
    }
  }

  if (out.admitted) {
    out.id = f.id;
    out.placed = f.route.size() *
                 static_cast<std::size_t>(1 + config_.retries_per_link) *
                 rho.size();
    record_placed_flow(f, rho.back(), static_cast<int>(rho.size()));
    flows_.push_back(std::move(f));
    rho_.push_back(std::move(rho));
    ++placed_;
  }
  flush_scheduler_metrics(stats, out.admitted);
  return out;
}

delta_scheduler::evict_outcome delta_scheduler::evict_flow(flow_id id) {
  OBS_SPAN("core.delta.evict");
  evict_outcome out;
  if (id < 0 || static_cast<std::size_t>(id) >= flows_.size()) return out;
  out.evicted = true;
  out.freed = placements_of(id);

  // Replay from the evicted flow's rank, or from the failed flow's when
  // the base is incomplete: every flow before that is complete and did
  // not see either.
  const std::size_t start = std::min(static_cast<std::size_t>(id), placed_);
  flows_.erase(flows_.begin() + id);
  rho_.erase(rho_.begin() + id);
  for (std::size_t i = static_cast<std::size_t>(id); i < flows_.size(); ++i)
    flows_[i].id = static_cast<flow_id>(i);

  scheduler_stats stats;
  placed_ = start;
  if (flows_.empty()) {
    sched_ = tsch::schedule();
  } else {
    const slot_t hp = flow::hyperperiod(flows_);
    if (hp == sched_.num_slots()) {
      // One pass frees the evicted flow and the suffix (old ids >=
      // start; the prefix ids did not move).
      sched_.remove_flows_from(static_cast<flow_id>(start));
    } else {
      // Hyperperiod shrink (the evicted flow alone carried the longest
      // period): the prefix's placements below the new hyperperiod are
      // the new oracle's, and its rho after the last surviving instance
      // is where a later growth resumes.
      tsch::schedule shrunk(hp, config_.num_channels);
      for (const auto& p : sched_.placements()) {
        if (p.tx.flow >= static_cast<flow_id>(start)) break;  // flow-major
        if (p.slot < hp) shrunk.add(p.tx, p.slot, p.offset);
      }
      for (std::size_t i = 0; i < start; ++i)
        rho_[i].resize(static_cast<std::size_t>(flows_[i].instances_in(hp)));
      sched_ = std::move(shrunk);
    }
    // Replay the suffix in priority order against the retained prefix:
    // those are the only flows whose greedy placements saw the freed
    // occupancy. Mirror schedule_flows on failure: the failed flow's
    // partial placements stay, later flows are not attempted.
    for (std::size_t i = start; i < flows_.size(); ++i) rho_[i].clear();
    for (; placed_ < flows_.size(); ++placed_) {
      auto& rho = rho_[placed_];
      if (!resume(sched_, flows_[placed_], rho, stats)) break;
      record_placed_flow(flows_[placed_], rho.back(),
                         static_cast<int>(rho.size()));
      ++out.rescheduled_flows;
    }
  }
  flush_scheduler_metrics(stats, schedulable());
  return out;
}

}  // namespace wsan::core
