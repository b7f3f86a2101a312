// Fleet service: many independent WSANs under one manager process.
//
// A production deployment of the paper's network manager does not run
// one network — it runs a fleet of them (one per plant cell / tenant),
// each with its own flow set and schedule but sharing the same physical
// testbed blueprint and scheduler configuration. The fleet layer shards
// that workload:
//
//   * shared-nothing tenants — each tenant owns its own
//     core::delta_scheduler arena (schedule grid, occupancy index, flow
//     set); no cross-tenant state exists, so tenants are the unit of
//     parallelism;
//   * a work-stealing pool (exp::parallel_trials) fans tenants out over
//     worker threads, and every per-tenant result lands in a slot
//     indexed by tenant id — not by worker — so the run is bit-identical
//     at any --jobs value;
//   * each tenant's churn stream (admit/evict decisions, flow draws) is
//     a pure function of (fleet seed, tenant id, op index) via
//     derive_seed, the same counter-seeded determinism model as the
//     experiment harness — any single tenant can be replayed in
//     isolation (replay_tenant) and reproduces exactly its slice of the
//     full run.
//
// Admissions and evictions go through the incremental delta-scheduling
// API (core/delta.h), which repairs every request in place rather than
// rerunning schedule_flows. Tenant flow priorities are arrival-order
// (dense ids), matching the delta scheduler's model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta.h"
#include "flow/flow_generator.h"
#include "graph/hop_matrix.h"
#include "obs/flight_recorder.h"
#include "topo/topology.h"

namespace wsan::fleet {

struct fleet_config {
  std::string testbed = "indriya";  ///< "indriya" | "wustl"
  int num_channels = 8;
  double prr_threshold = 0.9;
  core::algorithm algo = core::algorithm::rc;
  int rho_t = 2;
  int tenants = 1024;
  int ops_per_tenant = 32;
  /// Admission attempts stop growing a tenant past this many flows.
  int max_flows_per_tenant = 12;
  /// P(admit) for an op when both admitting and evicting are possible.
  double admit_bias = 0.7;
  std::uint64_t seed = 1;
  /// Per-admission flow draw template; num_flows is forced to 1.
  flow::flow_set_params flow_params;
};

/// Immutable state shared by every tenant of a fleet: the physical
/// deployment, its derived graphs, and the scheduler configuration.
/// Built once, read concurrently by all workers.
struct network_blueprint {
  topo::topology topology;
  std::vector<channel_t> channels;
  graph::graph comm;
  graph::graph reuse;
  graph::hop_matrix reuse_hops;
  core::scheduler_config sched_config;
};

network_blueprint make_blueprint(const fleet_config& config);

/// Per-tenant (and, merged, per-fleet) deterministic operation counts.
struct tenant_stats {
  std::int64_t ops = 0;
  std::int64_t admissions = 0;  ///< successful admits
  std::int64_t rejections = 0;  ///< admits the oracle verdict refused
  std::int64_t evictions = 0;
  std::int64_t placed = 0;      ///< transmissions placed by admissions
  std::int64_t freed = 0;       ///< transmissions freed by evictions
  /// Ops that needed a full rerun: always 0 since the delta scheduler
  /// repairs every request in place. perfbench still reads it.
  std::int64_t repair_fallbacks = 0;
  std::int64_t rescheduled_flows = 0;  ///< suffix flows replayed in place

  tenant_stats& operator+=(const tenant_stats& other);
  friend bool operator==(const tenant_stats&, const tenant_stats&) = default;
};

/// One tenant network: a delta-scheduler arena driven by a
/// deterministic churn stream.
class tenant {
 public:
  tenant(const network_blueprint& blueprint, const fleet_config& config)
      : blueprint_(&blueprint),
        config_(&config),
        delta_(blueprint.reuse_hops, blueprint.sched_config) {}

  /// Applies op `op` of tenant `tenant_id`'s churn stream: draw the
  /// op's RNG from derive_seed(config.seed, tenant_id, op), decide
  /// admit vs evict, and run it through the delta scheduler. When
  /// `admit_ns` is non-null the wall-clock latency of each admission
  /// attempt is appended to it (a measurement — never fed back into
  /// control flow, so determinism is unaffected).
  void apply_op(std::uint64_t tenant_id, std::uint64_t op,
                tenant_stats& stats, std::vector<double>* admit_ns);

  const core::delta_scheduler& delta() const { return delta_; }

 private:
  const network_blueprint* blueprint_;
  const fleet_config* config_;
  core::delta_scheduler delta_;
};

/// Order-independent digest of a tenant's final scheduler state
/// (verdict, flow count, grid size, every placement). Summed across
/// tenants it fingerprints the whole fleet, which is how the tests pin
/// --jobs 1 vs --jobs 8 bit-identity without retaining every tenant.
std::uint64_t tenant_state_digest(std::uint64_t tenant_id,
                                  const core::delta_scheduler& delta);

/// Deterministic result of a churn run plus its measurements.
struct fleet_result {
  tenant_stats totals;
  std::int64_t tenants = 0;
  std::int64_t schedulable_tenants = 0;  ///< final schedulable() states
  std::int64_t final_flows = 0;          ///< sum of final flow counts
  std::uint64_t state_digest = 0;  ///< wrapping sum of tenant digests
  /// Admission latencies in tenant-id order (values are wall-clock
  /// noise; the ordering is deterministic). Excluded from equality.
  std::vector<double> admit_latency_ns;

  friend bool operator==(const fleet_result& a, const fleet_result& b) {
    return a.totals == b.totals && a.tenants == b.tenants &&
           a.schedulable_tenants == b.schedulable_tenants &&
           a.final_flows == b.final_flows &&
           a.state_digest == b.state_digest;
  }
};

class fleet_manager {
 public:
  explicit fleet_manager(fleet_config config)
      : config_(std::move(config)), blueprint_(make_blueprint(config_)) {}

  const fleet_config& config() const { return config_; }
  const network_blueprint& blueprint() const { return blueprint_; }

  /// Runs the full churn workload (tenants x ops_per_tenant) across
  /// `jobs` workers. The deterministic part of the result is
  /// bit-identical at any jobs value. When `recorder` is non-null it is
  /// fed one tenant-indexed window per tenant (after the parallel fold,
  /// in tenant order — deterministic) and triggered if any tenant ends
  /// the run unschedulable.
  fleet_result run_churn(int jobs,
                         obs::flight_recorder* recorder = nullptr) const;

  /// Re-runs one tenant in isolation — same derived streams, no
  /// siblings. Its stats and final state equal that tenant's slice of
  /// run_churn.
  tenant replay_tenant(std::uint64_t tenant_id,
                       tenant_stats* stats = nullptr) const;

 private:
  fleet_config config_;
  network_blueprint blueprint_;
};

}  // namespace wsan::fleet
