#include "workloads.h"

#include <array>
#include <optional>
#include <stdexcept>

#include "bench_common.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "detect/detector.h"
#include "fleet/fleet.h"
#include "flow/flow_generator.h"
#include "scenario/scenario.h"
#include "sim/interference.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"

namespace perfbench {

using namespace wsan;

namespace {

// derive_seed point indices: one per input stream of a workload.
constexpr std::uint64_t k_stream_flow_sets = 0;
constexpr std::uint64_t k_stream_sim = 1;
constexpr std::uint64_t k_stream_round = 2;
constexpr std::uint64_t k_stream_trial = 3;

// ---------------------------------------------------------------------
// reliability-reuse: the Fig 8 pipeline on flow sets that need reuse.

constexpr core::algorithm k_algos[] = {
    core::algorithm::nr, core::algorithm::ra, core::algorithm::rc};
constexpr const char* k_algo_names[] = {"nr", "ra", "rc"};

/// Band for the mean PDR of each algorithm, over every flow of every
/// simulated schedule in a run. Measured means are 0.941-0.943 (RA) and
/// 0.945-0.948 (RC) across seeds, and the oracle and batched engine
/// tiers agree to 0.001, so the band holds whichever engine is the
/// default.
constexpr double k_pdr_low = 0.90;
constexpr double k_pdr_high = 0.98;

class reliability_reuse final : public workload {
 public:
  /// Distinct flow sets per run: the first k_pool routable draws of the
  /// seed, whatever the schedulers make of them. Ops cycle through them
  /// with fresh simulation seeds; one pass over the pool is a unit. An
  /// op simulates as many schedules as algorithms schedule its set, so
  /// the simulation load of a pool varies by seed; k_pool is large
  /// enough that it varies by a few percent only.
  static constexpr int k_pool = 200;
  static constexpr int k_channels = 4;
  static constexpr int k_rho_t = 2;

  explicit reliability_reuse(std::uint64_t seed) : seed_(seed) {}

  void build_topology() const override { (void)topo::make_wustl(); }

  setup_split setup() override {
    setup_split split;
    const auto t0 = steady::now();
    env_ = bench::make_env("wustl", k_channels);
    const auto t1 = steady::now();
    split.env_ms = ms_between(t0, t1);

    flow::flow_set_params fsp;
    fsp.type = flow::traffic_type::peer_to_peer;
    fsp.num_flows = 50;
    fsp.period_min_exp = -1;  // 0.5 s
    fsp.period_max_exp = 0;   // 1 s
    pool_.clear();
    for (std::uint64_t draw = 0; pool_.size() < k_pool; ++draw) {
      if (draw > 4 * k_pool)
        throw std::runtime_error("too few routable flow sets");
      rng gen(derive_seed(seed_, k_stream_flow_sets, draw));
      try {
        pool_.push_back(flow::generate_flow_set(env_.comm, fsp, gen));
      } catch (const std::runtime_error&) {
        // An unroutable draw: take the next one.
      }
    }
    base_sim_.runs = 100;
    base_sim_.interferers = sim::one_interferer_per_floor(env_.topology);
    split.flow_ms = ms_between(t1, steady::now());
    return split;
  }

  void rewind() override { next_ = 0; }

  op_kind run_op(span_ledger& spans) override {
    const auto& set = pool_[next_ % k_pool];
    sim::sim_config sim_config = base_sim_;
    // One simulation seed per op, shared by the three algorithms (the
    // paired comparison of Fig 8).
    sim_config.seed = derive_seed(seed_, k_stream_sim, next_);
    for (std::size_t a = 0; a < 3; ++a) {
      auto& out = last_[a];
      out.result = spans.time("core.schedule_flows", [&] {
        return core::schedule_flows(
            set.flows, env_.reuse_hops,
            core::make_config(k_algos[a], k_channels, k_rho_t));
      });
      out.sim.reset();
      out.reports.clear();
      if (!out.result.schedulable) continue;
      out.sim = spans.time("sim.run_simulation", [&] {
        return sim::run_simulation(env_.topology, out.result.sched,
                                   set.flows, env_.channels, sim_config);
      });
      out.reports = spans.time("detect.classify_links", [&] {
        return detect::classify_links(out.sim->links, policy_);
      });
    }
    last_set_ = next_ % k_pool;
    ++next_;
    return op_kind::plain;
  }

  std::vector<std::string> check_op(tally& counts) override {
    std::vector<std::string> failures;
    const auto& flows = pool_[last_set_].flows;
    for (std::size_t a = 0; a < 3; ++a) {
      const auto& out = last_[a];
      const auto& st = out.result.stats;
      const std::string name = k_algo_names[a];
      counts["core.schedule_flows.calls"] += 1;
      counts["core.schedulable." + name] += out.result.schedulable ? 1 : 0;
      counts["core.reuse_placements"] += static_cast<double>(st.reuse_placements);
      counts["core.reuse_activations"] +=
          static_cast<double>(st.reuse_activations);
      counts["core.laxity_evaluations"] +=
          static_cast<double>(st.laxity_evaluations);
      counts["core.find_slot_calls"] += static_cast<double>(st.find_slot_calls);
      counts["core.probes.cells_probed"] +=
          static_cast<double>(st.probes.cells_probed);
      if (!out.result.schedulable) continue;

      auto failure = check_schedule(out.result.sched, flows, env_.reuse_hops,
                                    k_algos[a], k_rho_t);
      if (!failure.empty()) failures.push_back(failure);
      counts["tsch.placements"] +=
          static_cast<double>(out.result.sched.num_transmissions());
      counts["tsch.shared_placements"] +=
          static_cast<double>(shared_placements(out.result.sched));

      const auto& res = *out.sim;
      failure = check_pdr_range(res.flow_pdr);
      if (!failure.empty()) failures.push_back(name + ": " + failure);
      for (const double pdr : res.flow_pdr) pdr_sum_[a] += pdr;
      pdr_count_[a] += static_cast<double>(res.flow_pdr.size());
      counts["sim.calls"] += 1;
      counts["sim.slots"] += static_cast<double>(base_sim_.runs) *
                             out.result.sched.num_slots();
      for (const auto& [link, obs] : res.links) {
        counts["sim.reuse_attempts"] += static_cast<double>(obs.reuse_attempts);
        counts["sim.attempts"] += static_cast<double>(obs.total_attempts());
      }
      counts["detect.links_classified"] +=
          static_cast<double>(out.reports.size());
      for (const auto& report : out.reports)
        if (report.verdict == detect::link_verdict::degraded_by_reuse)
          counts["detect.degraded_by_reuse"] += 1;
    }
    return failures;
  }

  std::vector<std::string> finish(tally& counts) override {
    (void)counts;
    std::vector<std::string> failures;
    for (std::size_t a = 0; a < 3; ++a) {
      if (pdr_count_[a] == 0.0) continue;  // never schedulable
      const auto failure =
          check_mean_pdr(k_algo_names[a], pdr_sum_[a] / pdr_count_[a],
                         k_pdr_low, k_pdr_high);
      if (!failure.empty()) failures.push_back(failure);
    }
    return failures;
  }

  bool unit_complete() const override {
    return next_ > 0 && next_ % k_pool == 0;
  }

  path_evidence evidence(const tally& counts) const override {
    return {.expect_reuse = true,
            .simulated = true,
            .shared_placement_share =
                ratio(counts, "tsch.shared_placements", "tsch.placements"),
            .reuse_attempt_share =
                ratio(counts, "sim.reuse_attempts", "sim.attempts")};
  }

 private:
  struct algo_output {
    core::schedule_result result;
    std::optional<sim::sim_result> sim;
    std::vector<detect::link_report> reports;
  };

  std::uint64_t seed_;
  bench::experiment_env env_;
  std::vector<flow::flow_set> pool_;
  sim::sim_config base_sim_;
  detect::detection_policy policy_;
  std::uint64_t next_ = 0;
  std::size_t last_set_ = 0;
  std::array<algo_output, 3> last_;
  std::array<double, 3> pdr_sum_{};
  std::array<double, 3> pdr_count_{};
};

// ---------------------------------------------------------------------
// fleet-reuse: tenant churn through the delta scheduler under reuse.

class fleet_reuse final : public workload {
 public:
  /// One round is a whole fleet (run_churn's workload) and a unit;
  /// every round draws a fresh fleet seed.
  static constexpr int k_tenants = 128;
  static constexpr int k_ops_per_tenant = 96;
  /// Every k-th tenant's final schedule is re-derived by schedule_flows.
  static constexpr int k_sample_every = 16;

  explicit fleet_reuse(std::uint64_t seed) : seed_(seed) {}

  void build_topology() const override { (void)topo::make_indriya(); }

  setup_split setup() override {
    setup_split split;
    base_.testbed = "indriya";
    base_.num_channels = 3;
    base_.tenants = k_tenants;
    base_.ops_per_tenant = k_ops_per_tenant;
    base_.max_flows_per_tenant = 30;
    base_.admit_bias = 0.7;
    base_.flow_params.type = flow::traffic_type::peer_to_peer;
    base_.flow_params.period_min_exp = -1;
    base_.flow_params.period_max_exp = 1;
    base_.seed = round_seed(0);
    const auto t0 = steady::now();
    blueprint_ = fleet::make_blueprint(base_);
    split.env_ms = ms_between(t0, steady::now());
    rewind();
    return split;
  }

  void rewind() override {
    round_ = 0;
    tenant_id_ = 0;
    op_ = 0;
    round_digest_ = 0;
    round_digests_.clear();
    tenant_.reset();
    config_ = std::make_unique<fleet::fleet_config>(base_);
  }

  void between_ops(span_ledger& spans) override {
    if (tenant_) return;
    spans.time("fleet.tenant", [&] { tenant_.emplace(blueprint_, *config_); });
  }

  op_kind run_op(span_ledger& spans) override {
    const auto before = stats_;
    const auto start = steady::now();
    tenant_->apply_op(static_cast<std::uint64_t>(tenant_id_),
                      static_cast<std::uint64_t>(op_), stats_, nullptr);
    const bool admit = stats_.evictions == before.evictions;
    if (spans.on())
      spans.add(admit ? "fleet.admit" : "fleet.evict",
                ms_between(start, steady::now()));
    last_before_ = before;
    return admit ? op_kind::admit : op_kind::evict;
  }

  std::vector<std::string> check_op(tally& counts) override {
    std::vector<std::string> failures;
    counts["fleet.admissions"] +=
        static_cast<double>(stats_.admissions - last_before_.admissions);
    counts["fleet.rejections"] +=
        static_cast<double>(stats_.rejections - last_before_.rejections);
    counts["fleet.evictions"] +=
        static_cast<double>(stats_.evictions - last_before_.evictions);
    counts["core.delta.placed"] +=
        static_cast<double>(stats_.placed - last_before_.placed);
    counts["core.delta.freed"] +=
        static_cast<double>(stats_.freed - last_before_.freed);
    counts["core.delta.full_reschedules"] += static_cast<double>(
        stats_.repair_fallbacks - last_before_.repair_fallbacks);
    counts["core.delta.rescheduled_flows"] += static_cast<double>(
        stats_.rescheduled_flows - last_before_.rescheduled_flows);
    if (++op_ < k_ops_per_tenant) return failures;

    // The tenant's stream is done: fold its final state.
    const auto& delta = tenant_->delta();
    round_digest_ +=
        fleet::tenant_state_digest(static_cast<std::uint64_t>(tenant_id_),
                                   delta);
    if (delta.schedulable()) {
      counts["tsch.placements"] +=
          static_cast<double>(delta.sched().num_transmissions());
      counts["tsch.shared_placements"] +=
          static_cast<double>(shared_placements(delta.sched()));
    }
    if (tenant_id_ % k_sample_every == 0) {
      const auto oracle = core::schedule_flows(
          delta.flows(), blueprint_.reuse_hops, blueprint_.sched_config);
      if (oracle.schedulable != delta.schedulable())
        failures.push_back("tenant verdict differs from schedule_flows");
      else if (oracle.schedulable) {
        const auto failure = check_same_placements(delta.sched(), oracle.sched);
        if (!failure.empty())
          failures.push_back("tenant vs schedule_flows: " + failure);
      }
    }
    tenant_.reset();
    op_ = 0;
    if (++tenant_id_ == k_tenants) {
      round_digests_.push_back(round_digest_);
      round_digest_ = 0;
      tenant_id_ = 0;
      ++round_;
      config_ = std::make_unique<fleet::fleet_config>(base_);
      config_->seed = round_seed(round_);
    }
    return failures;
  }

  std::vector<std::string> finish(tally& counts) override {
    (void)counts;
    std::vector<std::string> failures;
    if (round_digests_.empty()) {
      failures.push_back("no complete fleet round to check");
      return failures;
    }
    // The summed tenant digests of a round equal run_churn at one
    // worker; checked on the first and the last complete round.
    std::vector<int> rounds = {0};
    if (round_digests_.size() > 1)
      rounds.push_back(static_cast<int>(round_digests_.size()) - 1);
    for (const int r : rounds) {
      auto config = base_;
      config.seed = round_seed(r);
      const auto reference = fleet::fleet_manager(config).run_churn(1);
      const auto failure =
          check_digest("fleet round " + std::to_string(r),
                       round_digests_[static_cast<std::size_t>(r)],
                       reference.state_digest);
      if (!failure.empty()) failures.push_back(failure);
    }
    return failures;
  }

  bool unit_complete() const override {
    return round_ > 0 && tenant_id_ == 0 && op_ == 0;
  }

  path_evidence evidence(const tally& counts) const override {
    return {.expect_reuse = true,
            .simulated = false,
            .shared_placement_share =
                ratio(counts, "tsch.shared_placements", "tsch.placements"),
            .reuse_attempt_share = 0.0};
  }

 private:
  std::uint64_t round_seed(int round) const {
    return derive_seed(seed_, k_stream_round,
                       static_cast<std::uint64_t>(round));
  }

  std::uint64_t seed_;
  fleet::fleet_config base_;
  fleet::network_blueprint blueprint_;
  // Tenants keep a pointer to their config: it lives on the heap and is
  // replaced only between tenants.
  std::unique_ptr<fleet::fleet_config> config_;
  std::optional<fleet::tenant> tenant_;
  int round_ = 0;
  int tenant_id_ = 0;
  int op_ = 0;
  fleet::tenant_stats stats_;
  fleet::tenant_stats last_before_;
  std::uint64_t round_digest_ = 0;
  std::vector<std::uint64_t> round_digests_;
};

// ---------------------------------------------------------------------
// scenario-epochs: the churn point with SlotSwapper randomization on.

class scenario_epochs final : public workload {
 public:
  /// Trials run back to back; k_unit_trials of them (1152 epochs, enough
  /// for a p99) are a unit.
  static constexpr int k_unit_trials = 96;
  static constexpr int k_channels = 8;

  explicit scenario_epochs(std::uint64_t seed) : seed_(seed) {}

  void build_topology() const override { (void)topo::make_indriya(); }

  setup_split setup() override {
    setup_split split;
    const auto t0 = steady::now();
    topology_ = topo::make_indriya();
    rewind();  // the first trial's engine: the manager's graphs
    split.env_ms = ms_between(t0, steady::now());
    return split;
  }

  void rewind() override {
    trial_ = 0;
    trial0_digests_.clear();
    engine_ = std::make_unique<scenario::scenario_engine>(topology_,
                                                          trial_config(0));
  }

  void between_ops(span_ledger& spans) override {
    if (engine_->epoch() < k_epochs) return;
    ++trial_;
    spans.time("scenario.construct", [&] {
      engine_ = std::make_unique<scenario::scenario_engine>(
          topology_, trial_config(trial_));
    });
  }

  op_kind run_op(span_ledger& spans) override {
    last_ = spans.time("scenario.step", [&] { return engine_->step(); });
    return op_kind::plain;
  }

  std::vector<std::string> check_op(tally& counts) override {
    std::vector<std::string> failures;
    counts["scenario.epochs"] += 1;
    counts["scenario.arrivals_offered"] += last_.arrivals_offered;
    counts["scenario.rejected"] += last_.rejected_backpressure +
                                   last_.rejected_unroutable +
                                   last_.rejected_admission;
    counts["scenario.recovery_retries"] += last_.recovery_retries;
    counts["scenario.frame_slots"] += last_.num_slots;
    counts["tsch.swaps_attempted"] += last_.swaps_attempted;
    counts["tsch.swaps_applied"] += last_.swaps_applied;
    if (trial_ == 0) trial0_digests_.push_back(last_.digest);
    if (last_.num_slots > 0 && !engine_->flows().empty()) {
      // The epoch's workload re-admitted: does it share any cell?
      const auto admitted = engine_->manager().admit(engine_->flows());
      if (admitted.schedulable) {
        counts["tsch.placements"] +=
            static_cast<double>(admitted.sched.num_transmissions());
        counts["tsch.shared_placements"] +=
            static_cast<double>(shared_placements(admitted.sched));
      }
    }
    return failures;
  }

  std::vector<std::string> finish(tally& counts) override {
    (void)counts;
    std::vector<std::string> failures;
    if (trial0_digests_.empty()) {
      failures.push_back("no epoch of trial 0 to replay");
      return failures;
    }
    // Replay one epoch of trial 0 from scratch; its chained digest must
    // match the one the loop recorded.
    const int epoch = static_cast<int>(
        seed_ % static_cast<std::uint64_t>(trial0_digests_.size()));
    const auto replayed =
        scenario::scenario_engine::replay(topology_, trial_config(0), epoch);
    const auto failure = check_digest(
        "scenario epoch " + std::to_string(epoch), replayed.digest,
        trial0_digests_[static_cast<std::size_t>(epoch)]);
    if (!failure.empty()) failures.push_back(failure);
    return failures;
  }

  bool unit_complete() const override {
    return engine_->epoch() >= k_epochs &&
           (trial_ + 1) % k_unit_trials == 0;
  }

  path_evidence evidence(const tally& counts) const override {
    return {.expect_reuse = false,
            .simulated = true,
            .shared_placement_share =
                ratio(counts, "tsch.shared_placements", "tsch.placements"),
            .reuse_attempt_share = 0.0};
  }

 private:
  static constexpr int k_epochs = 12;

  /// The churn bench's point config (indriya-80, randomized), with 18
  /// simulator runs per health-report epoch.
  scenario::scenario_config trial_config(int trial) const {
    scenario::scenario_config config;
    config.epochs = k_epochs;
    config.runs_per_epoch = 18;
    config.seed =
        derive_seed(seed_, k_stream_trial, static_cast<std::uint64_t>(trial));
    config.flow_params.num_flows = 8;
    config.flow_params.type = flow::traffic_type::peer_to_peer;
    config.flow_params.period_min_exp = 0;
    config.flow_params.period_max_exp = 1;
    config.departure_rate = 0.1;
    config.arrivals.rate = 1.5;
    config.arrivals.max_flows = 12;
    config.churn.crash_rate = 0.01;
    config.churn.revival_rate = 0.3;
    config.jammer.enabled = true;
    config.jammer.jam_slots = 3;
    config.jammer.randomize = true;
    config.jammer.swap_attempts = 128;
    config.manager.num_channels = k_channels;
    config.manager.scheduler =
        core::make_config(core::algorithm::rc, k_channels);
    config.manager.watchdog_epochs = 2;
    config.sim.probes_per_run = 1;
    return config;
  }

  std::uint64_t seed_;
  topo::topology topology_;
  std::unique_ptr<scenario::scenario_engine> engine_;
  int trial_ = 0;
  scenario::epoch_record last_;
  std::vector<std::uint64_t> trial0_digests_;
};

}  // namespace

double ratio(const tally& counts, const std::string& part,
             const std::string& whole) {
  const auto p = counts.find(part);
  const auto w = counts.find(whole);
  if (p == counts.end() || w == counts.end() || w->second == 0.0) return 0.0;
  return p->second / w->second;
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "reliability-reuse")
    return std::make_unique<reliability_reuse>(seed);
  if (name == "fleet-reuse") return std::make_unique<fleet_reuse>(seed);
  if (name == "scenario-epochs")
    return std::make_unique<scenario_epochs>(seed);
  return nullptr;
}

}  // namespace perfbench
