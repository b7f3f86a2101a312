#include "manager/network_manager.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "flow/router.h"
#include "graph/algorithms.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"

namespace wsan::manager {

namespace {

/// The stored configuration: the scheduler's channel count follows the
/// manager's.
manager_config synced(manager_config config) {
  config.scheduler.num_channels = config.num_channels;
  return config;
}

}  // namespace

network_manager::network_manager(topo::topology topology,
                                 manager_config config)
    : config_(synced(std::move(config))),
      view_(std::make_shared<const graph::network_view>(
          graph::make_network_view(std::move(topology),
                                   phy::channels(config_.num_channels)))),
      // Isolation state has exactly one owner: isolated_. Links the
      // caller pre-seeded into the scheduler config are adopted here,
      // and the stored config's set stays empty from now on (see
      // effective_scheduler_config).
      isolated_(std::exchange(config_.scheduler.isolated_links, {})),
      held_(view_->reuse_hops, effective_scheduler_config()) {
  WSAN_REQUIRE(config_.watchdog_epochs >= 1,
               "watchdog must allow at least one missed epoch");
}

core::scheduler_config network_manager::effective_scheduler_config()
    const {
  auto config = config_.scheduler;
  config.isolated_links = isolated_;
  return config;
}

flow::flow_set network_manager::generate_workload(
    const flow::flow_set_params& params, rng& gen) const {
  return flow::generate_flow_set(view_->comm, params, gen);
}

core::schedule_result network_manager::admit(
    const std::vector<flow::flow>& flows) const {
  OBS_SPAN("manager.admit");
  // Admission latency distribution (microseconds, wall-clock — a
  // measurement like span total_ns, not part of the deterministic
  // science): exponential buckets 1us .. ~260ms.
  static const obs::histogram admit_hist = obs::register_histogram(
      "manager.admit_us", obs::exponential_bounds(1.0, 4.0, 10));
  const auto start = obs::enabled()
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  auto result = core::schedule_flows(flows, view_->reuse_hops,
                                     effective_scheduler_config());
  if (obs::enabled())
    admit_hist.observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  if (obs::events_enabled())
    obs::emit(result.schedulable ? obs::severity::info
                                 : obs::severity::warning,
              "manager", "admission",
              {{"flows", flows.size()},
               {"schedulable", result.schedulable}});
  return result;
}

bool network_manager::assign(std::vector<flow::flow> flows) {
  held_ = core::delta_scheduler(view_->reuse_hops,
                                effective_scheduler_config(),
                                std::move(flows));
  return held_.schedulable();
}

bool network_manager::admit_flow(flow::flow f) {
  const std::size_t offered = held_.size() + 1;
  const bool admitted = held_.admit_flow(std::move(f)).admitted;
  if (obs::events_enabled())
    obs::emit(admitted ? obs::severity::info : obs::severity::warning,
              "manager", "admission",
              {{"flows", offered}, {"schedulable", admitted}});
  return admitted;
}

void network_manager::evict_flows(std::span<const flow_id> ids) {
  WSAN_REQUIRE(held_.evict_flows(ids).evicted || ids.empty(),
               "evicted flow id out of range");
}

std::size_t network_manager::shed_to_fit() {
  if (held_.schedulable()) return 0;
  // One eviction from the first flow that failed keeps the longest
  // complete prefix. That flow failed on the whole workload's
  // hyperperiod, a multiple of its own prefix's, and a later block can
  // fail where the first fits (RC's rho carries across blocks). So the
  // tail is re-admitted in order until the first refusal, which is
  // usually the failed flow itself: that keeps the longest prefix that
  // fits on its own hyperperiod, and no longer one fits, because a
  // failing prefix fails on every multiple of its hyperperiod.
  const auto first = static_cast<flow_id>(held_.placed());
  std::vector<flow::flow> tail(held_.flows().begin() + first,
                               held_.flows().end());
  std::vector<flow_id> ids(tail.size());
  std::iota(ids.begin(), ids.end(), first);
  held_.evict_flows(ids);
  std::size_t kept = 0;
  while (kept < tail.size() &&
         held_.admit_flow(std::move(tail[kept])).admitted)
    ++kept;
  return tail.size() - kept;
}

network_manager::maintenance_outcome network_manager::maintain(
    const std::map<sim::link_key, sim::link_observations>& observations) {
  OBS_SPAN("manager.maintain");
  maintenance_outcome outcome;
  outcome.reports =
      detect::classify_links(observations, config_.detection);
  const auto flagged = detect::isolation_set(outcome.reports);
  for (const auto& link : flagged) {
    if (isolated_.insert(link).second) {
      outcome.newly_isolated.insert(link);
      obs::add_counter("manager.links_isolated");
      if (obs::events_enabled())
        obs::emit(obs::severity::warning, "manager", "link_isolated",
                  {{"sender", link.first}, {"receiver", link.second}});
    }
  }
  if (!outcome.newly_isolated.empty()) {
    // The flagged links are already merged into isolated_ above, so the
    // one effective config covers them; no second merge to drift from.
    // The scheduler's config is fixed per instance, so the held
    // workload is rebuilt under it.
    outcome.rescheduled = true;
    assign(held_.flows());
  }
  return outcome;
}

network_manager::recovery_outcome network_manager::recover(
    const std::map<sim::link_key, sim::link_observations>& observations) {
  OBS_SPAN("manager.recover");
  recovery_outcome outcome;
  outcome.epoch = epoch_++;
  obs::add_counter("manager.recover_epochs");

  std::set<node_id> heard;
  for (const auto& [key, obs] : observations)
    if (!obs.reuse_samples.empty() || !obs.cf_samples.empty())
      heard.insert(key.sender);

  // Rehabilitation: a report is proof of life, so a node previously
  // declared dead whose reports resume leaves the dead set at once (a
  // flapping node is re-admitted, not permanently blacklisted). Any
  // report also resets the sender's silent-epoch counter — receipt is
  // receipt, whether or not the node is currently expected.
  for (const node_id node : heard) {
    silent_epochs_.erase(node);
    if (dead_.erase(node) > 0) {
      outcome.rehabilitated.push_back(node);
      obs::add_counter("manager.nodes_rehabilitated");
      if (obs::events_enabled())
        obs::emit(obs::severity::info, "manager", "node_rehabilitated",
                  {{"node", node}, {"epoch", outcome.epoch}});
    }
  }

  // Watchdog: every sender in the routed workload owes health reports
  // (it reports its outgoing links' statistics). Nodes still declared
  // dead owe nothing.
  const auto& flows = held_.flows();
  std::set<node_id> expected;
  for (const auto& f : flows)
    for (const auto& l : f.route)
      if (dead_.count(l.sender) == 0) expected.insert(l.sender);

  for (node_id node : expected) {
    if (heard.count(node) > 0) {
      silent_epochs_.erase(node);
      continue;
    }
    outcome.silent_nodes.push_back(node);
    const int silent = ++silent_epochs_[node];
    if (obs::events_enabled())
      obs::emit(obs::severity::info, "manager", "watchdog_silent",
                {{"node", node},
                 {"epoch", outcome.epoch},
                 {"silent_epochs", silent}});
    if (silent >= config_.watchdog_epochs) {
      dead_.insert(node);
      silent_epochs_.erase(node);
      outcome.newly_dead.push_back(node);
      outcome.detection_latency_epochs =
          std::max(outcome.detection_latency_epochs, silent);
      obs::add_counter("manager.nodes_declared_dead");
      if (obs::events_enabled())
        obs::emit(obs::severity::warning, "manager", "node_declared_dead",
                  {{"node", node},
                   {"epoch", outcome.epoch},
                   {"silent_epochs", silent}});
    }
  }
  if (!outcome.rehabilitated.empty() || !outcome.newly_dead.empty())
    live_comm_ = dead_.empty() ? graph::graph()
                               : graph::remove_nodes(view_->comm, dead_);
  if (outcome.newly_dead.empty()) return outcome;

  // Recovery: route the workload around the dead set, drop what cannot
  // be carried, then shed by priority until the remainder fits.
  std::vector<flow::flow> survivors;
  std::vector<flow_id> input_ids;
  for (const auto& f : flows) {
    const bool touches_dead =
        dead_.count(f.source) > 0 || dead_.count(f.destination) > 0 ||
        std::any_of(f.route.begin(), f.route.end(), [&](const auto& l) {
          return dead_.count(l.sender) > 0 || dead_.count(l.receiver) > 0;
        });
    if (!touches_dead) {
      survivors.push_back(f);
      input_ids.push_back(f.id);
      continue;
    }
    const auto rerouted = flow::reroute_flow(live_comm(), f, dead_);
    if (!rerouted) {
      outcome.unroutable_flows.push_back(f.id);
      obs::add_counter("manager.flows_unroutable");
      if (obs::events_enabled())
        obs::emit(obs::severity::warning, "manager", "flow_unroutable",
                  {{"flow", f.id}, {"epoch", outcome.epoch}});
      continue;
    }
    flow::flow repaired = f;
    repaired.route = rerouted->links;
    repaired.uplink_links = rerouted->uplink_links;
    flow::validate_flow(repaired);
    outcome.rerouted_flows.push_back(f.id);
    obs::add_counter("manager.flows_rerouted");
    if (obs::events_enabled())
      obs::emit(obs::severity::info, "manager", "flow_rerouted",
                {{"flow", f.id},
                 {"epoch", outcome.epoch},
                 {"hops", repaired.route.size()}});
    survivors.push_back(std::move(repaired));
    input_ids.push_back(f.id);
  }
  // Renumber densely: relative order (and therefore the fixed-priority
  // assignment) is preserved, ids become priority ranks again.
  for (std::size_t i = 0; i < survivors.size(); ++i)
    survivors[i].id = static_cast<flow_id>(i);

  assign(std::move(survivors));
  const std::size_t kept = input_ids.size() - shed_to_fit();
  // Shedding dropped the tail, lowest priority first.
  for (std::size_t i = input_ids.size(); i-- > kept;) {
    outcome.shed_flows.push_back(input_ids[i]);
    obs::add_counter("manager.flows_shed");
    if (obs::events_enabled())
      obs::emit(obs::severity::warning, "manager", "flow_shed",
                {{"flow", input_ids[i]}, {"epoch", outcome.epoch}});
  }
  input_ids.resize(kept);
  outcome.surviving_input_ids = std::move(input_ids);
  outcome.rescheduled = true;
  return outcome;
}

}  // namespace wsan::manager
