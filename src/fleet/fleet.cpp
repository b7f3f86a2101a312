#include "fleet/fleet.h"

#include <chrono>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"
#include "topo/testbeds.h"

namespace wsan::fleet {

network_blueprint make_blueprint(const fleet_config& config) {
  WSAN_REQUIRE(config.tenants >= 1, "fleet needs at least one tenant");
  WSAN_REQUIRE(config.ops_per_tenant >= 0,
               "ops per tenant must be non-negative");
  WSAN_REQUIRE(config.max_flows_per_tenant >= 1,
               "tenants must admit at least one flow");
  WSAN_REQUIRE(config.admit_bias >= 0.0 && config.admit_bias <= 1.0,
               "admit bias must be a probability");
  return {graph::make_network_view(topo::make_named_testbed(config.testbed),
                                   phy::channels(config.num_channels)),
          core::make_config(config.algo, config.num_channels, config.rho_t)};
}

tenant_stats& tenant_stats::operator+=(const tenant_stats& other) {
  ops += other.ops;
  admissions += other.admissions;
  rejections += other.rejections;
  evictions += other.evictions;
  placed += other.placed;
  freed += other.freed;
  repair_fallbacks += other.repair_fallbacks;
  rescheduled_flows += other.rescheduled_flows;
  return *this;
}

void tenant::apply_op(std::uint64_t tenant_id, std::uint64_t op,
                      tenant_stats& stats, std::vector<double>* admit_ns) {
  rng gen(derive_seed(config_->seed, tenant_id, op));
  const bool can_admit =
      delta_.size() <
      static_cast<std::size_t>(config_->max_flows_per_tenant);
  const bool can_evict = !delta_.empty();
  // An op with nothing to do (empty tenant at max_flows 0 is ruled out
  // by make_blueprint) is impossible: !can_evict implies can_admit.
  const bool do_admit =
      can_admit && (!can_evict || gen.bernoulli(config_->admit_bias));
  ++stats.ops;

  if (do_admit) {
    flow::flow_set_params params = config_->flow_params;
    params.num_flows = 1;
    flow::flow f =
        flow::generate_flow_set(blueprint_->comm, params, gen)
            .flows.front();
    core::delta_scheduler::admit_outcome out;
    double ns = 0.0;
    {
      OBS_SPAN("fleet.admit");
      const auto start = std::chrono::steady_clock::now();
      out = delta_.admit_flow(std::move(f));
      ns = std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count();
    }
    if (admit_ns != nullptr) admit_ns->push_back(ns);
    if (out.admitted) {
      ++stats.admissions;
      stats.placed += static_cast<std::int64_t>(out.placed);
      obs::add_counter("fleet.admissions");
    } else {
      ++stats.rejections;
      obs::add_counter("fleet.rejections");
    }
    if (obs::events_enabled())
      obs::emit(obs::severity::info, "fleet", "admit",
                {{"tenant", static_cast<long long>(tenant_id)},
                 {"admitted", out.admitted ? 1 : 0}});
    return;
  }

  OBS_SPAN("fleet.evict");
  const auto victim = static_cast<flow_id>(
      gen.uniform_int(0, static_cast<std::int64_t>(delta_.size()) - 1));
  const auto out = delta_.evict_flow(victim);
  WSAN_CHECK(out.evicted, "churn picked a flow id that must exist");
  ++stats.evictions;
  stats.freed += static_cast<std::int64_t>(out.freed);
  stats.rescheduled_flows +=
      static_cast<std::int64_t>(out.rescheduled_flows);
  obs::add_counter("fleet.evictions");
  if (obs::events_enabled())
    obs::emit(obs::severity::info, "fleet", "evict",
              {{"tenant", static_cast<long long>(tenant_id)},
               {"victim", victim}});
}

std::uint64_t tenant_state_digest(std::uint64_t tenant_id,
                                  const core::delta_scheduler& delta) {
  // FNV-1a over the full final state; the per-tenant hashes are summed
  // (wrapping) by run_churn, so the fleet digest is independent of the
  // order tenants finish in.
  std::uint64_t h = 1469598103934665603ULL ^ (tenant_id * 0x9e3779b97f4a7c15ULL);
  const auto feed = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  feed(delta.schedulable() ? 1 : 0);
  feed(delta.size());
  feed(static_cast<std::uint64_t>(delta.sched().num_slots()));
  for (const auto& p : delta.sched().placements()) {
    feed(static_cast<std::uint64_t>(p.tx.flow));
    feed(static_cast<std::uint64_t>(p.tx.instance));
    feed(static_cast<std::uint64_t>(p.tx.link_index));
    feed(static_cast<std::uint64_t>(p.tx.attempt));
    feed(static_cast<std::uint64_t>(p.slot));
    feed(static_cast<std::uint64_t>(p.offset));
  }
  return h;
}

fleet_result fleet_manager::run_churn(int jobs,
                                      obs::flight_recorder* recorder) const {
  OBS_SPAN("fleet.run_churn");
  const int n = config_.tenants;
  // Every per-tenant output lands in a slot indexed by tenant id, so
  // the merge below never depends on which worker ran which tenant.
  std::vector<tenant_stats> stats(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(n), 0);
  std::vector<char> schedulable(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> flows(static_cast<std::size_t>(n), 0);
  exp::parallel_trials(n, jobs, [&](int worker, int t) {
    (void)worker;  // shard state is keyed by tenant, not worker
    const auto ti = static_cast<std::size_t>(t);
    tenant ten(blueprint_, config_);
    for (int op = 0; op < config_.ops_per_tenant; ++op)
      ten.apply_op(static_cast<std::uint64_t>(t),
                   static_cast<std::uint64_t>(op), stats[ti],
                   &latencies[ti]);
    digests[ti] = tenant_state_digest(static_cast<std::uint64_t>(t),
                                      ten.delta());
    schedulable[ti] = ten.delta().schedulable() ? 1 : 0;
    flows[ti] = static_cast<std::int64_t>(ten.delta().size());
  });

  fleet_result result;
  result.tenants = n;
  for (std::size_t t = 0; t < static_cast<std::size_t>(n); ++t) {
    result.totals += stats[t];
    result.state_digest += digests[t];
    result.schedulable_tenants += schedulable[t];
    result.final_flows += flows[t];
    result.admit_latency_ns.insert(result.admit_latency_ns.end(),
                                   latencies[t].begin(),
                                   latencies[t].end());
  }

  // Flight recorder: tenant-indexed windows, fed after the fold so the
  // sequence is deterministic at any jobs value. A tenant that ends
  // its churn stream unschedulable is an anomaly worth a post-mortem.
  if (recorder != nullptr) {
    for (std::size_t t = 0; t < static_cast<std::size_t>(n); ++t) {
      obs::series_window w;
      w.index = static_cast<std::int64_t>(t);
      w.values["ops"] = static_cast<double>(stats[t].ops);
      w.values["admissions"] = static_cast<double>(stats[t].admissions);
      w.values["rejections"] = static_cast<double>(stats[t].rejections);
      w.values["evictions"] = static_cast<double>(stats[t].evictions);
      w.values["schedulable"] = schedulable[t] ? 1.0 : 0.0;
      w.values["flows"] = static_cast<double>(flows[t]);
      recorder->record_window(w);
      if (!schedulable[t])
        recorder->trigger(
            obs::severity::error, "fleet", "tenant_unschedulable",
            {{"tenant", static_cast<std::int64_t>(t)},
             {"flows", flows[t]},
             {"ops", stats[t].ops}});
    }
  }
  return result;
}

tenant fleet_manager::replay_tenant(std::uint64_t tenant_id,
                                    tenant_stats* stats) const {
  WSAN_REQUIRE(tenant_id < static_cast<std::uint64_t>(config_.tenants),
               "tenant id out of range");
  tenant ten(blueprint_, config_);
  tenant_stats local;
  for (int op = 0; op < config_.ops_per_tenant; ++op)
    ten.apply_op(tenant_id, static_cast<std::uint64_t>(op), local,
                 nullptr);
  if (stats != nullptr) *stats = local;
  return ten;
}

}  // namespace wsan::fleet
