#include "core/scheduler.h"

#include <optional>
#include <span>

#include "common/error.h"
#include "core/laxity.h"
#include "core/slot_finder.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"

namespace wsan::core {

namespace {

/// Expands one flow instance into its transmission sequence — every
/// route link in order, each with (1 + retries) attempts — overwriting
/// `txs`, whose capacity is kept across instances.
void instance_transmissions(const flow::flow& f, int instance,
                            int retries_per_link,
                            std::vector<tsch::transmission>& txs) {
  txs.clear();
  for (int li = 0; li < static_cast<int>(f.route.size()); ++li) {
    for (int a = 0; a <= retries_per_link; ++a) {
      tsch::transmission tx;
      tx.flow = f.id;
      tx.instance = instance;
      tx.link_index = li;
      tx.attempt = a;
      tx.sender = f.route[static_cast<std::size_t>(li)].sender;
      tx.receiver = f.route[static_cast<std::size_t>(li)].receiver;
      txs.push_back(tx);
    }
  }
}

}  // namespace

void flush_scheduler_metrics(const scheduler_stats& stats,
                             bool schedulable) {
  if (!obs::enabled()) return;
  // Interned once: the delta scheduler flushes on every admit and evict,
  // where obs::add_counter's registry lock would show up.
  struct handles {
    obs::counter runs = obs::register_counter("core.sched.runs");
    obs::counter runs_schedulable =
        obs::register_counter("core.sched.runs_schedulable");
    obs::counter runs_unschedulable =
        obs::register_counter("core.sched.runs_unschedulable");
    obs::counter total_transmissions =
        obs::register_counter("core.sched.total_transmissions");
    obs::counter reuse_placements =
        obs::register_counter("core.sched.reuse_placements");
    obs::counter find_slot_calls =
        obs::register_counter("core.sched.find_slot_calls");
    obs::counter laxity_evaluations =
        obs::register_counter("core.sched.laxity_evaluations");
    obs::counter reuse_activations =
        obs::register_counter("core.sched.reuse_activations");
    obs::counter relaxation_rounds =
        obs::register_counter("core.sched.relaxation_rounds");
    obs::counter slots_scanned =
        obs::register_counter("core.probes.slots_scanned");
    obs::counter cells_probed =
        obs::register_counter("core.probes.cells_probed");
    obs::counter index_hits = obs::register_counter("core.probes.index_hits");
  };
  static const handles h;
  h.runs.add();
  (schedulable ? h.runs_schedulable : h.runs_unschedulable).add();
  h.total_transmissions.add(stats.total_transmissions);
  h.reuse_placements.add(stats.reuse_placements);
  h.find_slot_calls.add(stats.find_slot_calls);
  h.laxity_evaluations.add(stats.laxity_evaluations);
  h.reuse_activations.add(stats.reuse_activations);
  h.relaxation_rounds.add(stats.relaxation_rounds);
  h.slots_scanned.add(stats.probes.slots_scanned);
  h.cells_probed.add(stats.probes.cells_probed);
  h.index_hits.add(stats.probes.index_hits);
}

void record_placed_flow(const flow::flow& f, int rho, int instances) {
  static const obs::histogram final_rho = obs::register_histogram(
      "core.sched.final_rho", {0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16});
  final_rho.observe(static_cast<double>(rho));
  if (obs::events_enabled())
    obs::emit(obs::severity::info, "core", "flow_admitted",
              {{"flow", f.id},
               {"rho", rho == k_infinite_hops ? -1 : rho},
               {"instances", instances}});
}

std::string to_string(algorithm algo) {
  switch (algo) {
    case algorithm::nr:
      return "NR";
    case algorithm::ra:
      return "RA";
    case algorithm::rc:
      return "RC";
  }
  WSAN_CHECK(false, "unknown algorithm");
}

algorithm parse_algorithm(const std::string& name) {
  if (name == "nr" || name == "NR") return algorithm::nr;
  if (name == "ra" || name == "RA") return algorithm::ra;
  if (name == "rc" || name == "RC") return algorithm::rc;
  throw std::invalid_argument("unknown algorithm '" + name +
                              "' (expected nr, ra or rc)");
}

scheduler_config make_config(algorithm algo, int num_channels, int rho_t) {
  scheduler_config config;
  config.algo = algo;
  config.num_channels = num_channels;
  config.rho_t = rho_t;
  config.policy = algo == algorithm::ra ? channel_policy::first_fit
                                        : channel_policy::min_load;
  return config;
}

std::string to_string(channel_policy policy) {
  switch (policy) {
    case channel_policy::min_load:
      return "min-load";
    case channel_policy::first_fit:
      return "first-fit";
    case channel_policy::max_reuse:
      return "max-reuse";
  }
  WSAN_CHECK(false, "unknown channel policy");
}

void validate_config(const scheduler_config& config) {
  WSAN_REQUIRE(config.num_channels >= 1 &&
                   config.num_channels <= phy::k_max_channels,
               "channel count must be in [1, 16]");
  WSAN_REQUIRE(config.rho_t >= 1, "rho_t must be at least 1");
  WSAN_REQUIRE(config.retries_per_link >= 0,
               "retries must be non-negative");
  WSAN_REQUIRE(config.management_slot_period >= 0,
               "management slot period must be non-negative");
}

schedule_result schedule_flows(const std::vector<flow::flow>& flows,
                               const graph::hop_matrix& reuse_hops,
                               const scheduler_config& config) {
  OBS_SPAN("core.schedule_flows");
  WSAN_REQUIRE(!flows.empty(), "flow set must be non-empty");
  validate_config(config);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flow::validate_flow(flows[i]);
    WSAN_REQUIRE(flows[i].id == static_cast<flow_id>(i),
                 "flows must be in priority order with dense ids");
  }

  const slot_t hp = flow::hyperperiod(flows);

  schedule_result result;
  result.sched = tsch::schedule(hp, config.num_channels);

  for (const auto& f : flows) {
    // Algorithm 1: rho starts at infinity for each flow.
    int rho = k_infinite_hops;
    const int instances = f.instances_in(hp);
    if (!schedule_flow_into(result.sched, f, 0, instances, rho, reuse_hops,
                            config, result.stats)) {
      result.schedulable = false;
      result.first_failed_flow = f.id;
      flush_scheduler_metrics(result.stats, false);
      return result;
    }
    record_placed_flow(f, rho, instances);
  }

  result.schedulable = true;
  flush_scheduler_metrics(result.stats, true);
  return result;
}

bool schedule_flow_into(tsch::schedule& sched, const flow::flow& f,
                        int first_instance, int end_instance, int& rho,
                        const graph::hop_matrix& reuse_hops,
                        const scheduler_config& config,
                        scheduler_stats& stats) {
  WSAN_REQUIRE(0 <= first_instance && first_instance <= end_instance &&
                   end_instance <= f.instances_in(sched.num_slots()),
               "instance range outside the schedule's hyperperiod");
  const int lambda_r = reuse_hops.diameter();
  const bool indexed_laxity =
      config.algo == algorithm::rc && config.use_occupancy_index;
  // One instance buffer per thread, refilled per instance; T_post is a
  // view of its tail, so placing a transmission allocates nothing. RC's
  // laxity snapshot is refilled with it: each placement lands before
  // the next search starts, so no slot a later Eq. 1 evaluation of the
  // instance reads changes after the instance begins.
  static thread_local std::vector<tsch::transmission> txs;
  static thread_local instance_laxity eq1;
  for (int r = first_instance; r < end_instance; ++r) {
    instance_transmissions(f, r, config.retries_per_link, txs);
    slot_t earliest = f.release_slot(r);
    const slot_t d_i = f.deadline_slot(r);
    if (indexed_laxity)
      eq1.snapshot(sched, txs, earliest, d_i, config.management_slot_period);

    for (std::size_t ti = 0; ti < txs.size(); ++ti) {
      const auto& tx = txs[ti];
      std::optional<slot_assignment> found;
      switch (config.algo) {
        case algorithm::nr: {
          ++stats.find_slot_calls;
          found = find_slot(sched, tx, earliest, d_i,
                            k_infinite_hops, reuse_hops, config.policy,
                            &config.isolated_links,
                            config.management_slot_period,
                            config.use_occupancy_index,
                            &stats.probes);
          break;
        }
        case algorithm::ra: {
          ++stats.find_slot_calls;
          found = find_slot(sched, tx, earliest, d_i,
                            config.rho_t, reuse_hops, config.policy,
                            &config.isolated_links,
                            config.management_slot_period,
                            config.use_occupancy_index,
                            &stats.probes);
          break;
        }
        case algorithm::rc: {
          // Algorithm 1 inner loop: try the current rho; on negative
          // laxity enable reuse at the network diameter and tighten
          // one hop at a time until laxity >= 0 or rho < rho_t.
          while (true) {
            ++stats.relaxation_rounds;
            ++stats.find_slot_calls;
            found = find_slot(sched, tx, earliest, d_i, rho,
                              reuse_hops, config.policy,
                              &config.isolated_links,
                              config.management_slot_period,
                              config.use_occupancy_index,
                              &stats.probes);
            bool laxity_ok = false;
            if (found) {
              // Eq. 1 with T_post = txs[ti + 1..], the remaining
              // transmissions of this instance.
              ++stats.laxity_evaluations;
              const long long laxity =
                  indexed_laxity
                      ? eq1.laxity(ti + 1, found->slot, &stats.probes)
                      : calculate_laxity(
                            sched,
                            std::span<const tsch::transmission>(txs)
                                .subspan(ti + 1),
                            found->slot, d_i, config.management_slot_period,
                            false, &stats.probes);
              laxity_ok = laxity >= 0;
            }
            if (laxity_ok) break;
            if (rho == k_infinite_hops) {
              rho = lambda_r;
              ++stats.reuse_activations;
              if (obs::events_enabled())
                obs::emit(obs::severity::info, "core", "reuse_activated",
                          {{"flow", f.id}, {"rho", rho}});
            } else {
              --rho;
            }
            if (rho < config.rho_t) {
              // The most permissive find_slot already ran (at rho_t, or
              // not at all when the diameter is below rho_t); keep its
              // result and clamp rho so later transmissions of this
              // flow start from a legal hop count.
              rho = config.rho_t;
              break;
            }
          }
          break;
        }
      }

      if (!found) {
        if (obs::events_enabled())
          obs::emit(obs::severity::warning, "core", "flow_rejected",
                    {{"flow", f.id},
                     {"instance", r},
                     {"link_index", tx.link_index}});
        return false;
      }
      if (!sched.cell(found->slot, found->offset).empty())
        ++stats.reuse_placements;
      sched.add(tx, found->slot, found->offset);
      ++stats.total_transmissions;
      earliest = found->slot + 1;
    }
  }
  return true;
}

}  // namespace wsan::core
