#include "scenario/scenario.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "detect/detector.h"
#include "graph/algorithms.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "tsch/randomize.h"

namespace wsan::scenario {

namespace {

constexpr std::uint64_t k_fnv_offset = 1469598103934665603ULL;
constexpr std::uint64_t k_fnv_prime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= k_fnv_prime;
  }
}

}  // namespace

int poisson_draw(rng& gen, double mean) {
  WSAN_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  // Knuth's multiplication method: exact, and a pure function of the
  // rng stream (no std:: distribution variability).
  const double limit = std::exp(-mean);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= gen.uniform01();
  } while (p > limit);
  return k - 1;
}

scenario_engine::scenario_engine(topo::topology topology,
                                 scenario_config config)
    : config_(std::move(config)),
      mgr_(std::move(topology), config_.manager) {
  WSAN_REQUIRE(config_.epochs >= 1, "scenario needs at least one epoch");
  WSAN_REQUIRE(config_.runs_per_epoch >= 1,
               "scenario needs at least one run per epoch");
  WSAN_REQUIRE(config_.retry.max_attempts >= 1,
               "recovery needs at least one attempt");
  if (config_.flow_params.num_flows > 0) {
    rng gen(derive_seed(config_.seed, 0, k_stream_init));
    auto fs = mgr_.generate_workload(config_.flow_params, gen);
    flows_ = std::move(fs.flows);
    // The backpressure cap binds at all times, the initial population
    // included: keep the highest-priority prefix (ids are dense ranks).
    if (static_cast<int>(flows_.size()) > config_.arrivals.max_flows)
      flows_.resize(static_cast<std::size_t>(config_.arrivals.max_flows));
    uids_.reserve(flows_.size());
    for (std::size_t i = 0; i < flows_.size(); ++i)
      uids_.push_back(next_uid_++);
    // Shed-to-fit: the initial population is a demand, not a guarantee.
    // Epoch 0's record counts what it dropped.
    const std::size_t demand = flows_.size();
    mgr_.admit_shedding(flows_);
    initial_shed_ = static_cast<int>(demand - flows_.size());
    uids_.resize(flows_.size());
  }
}

epoch_record scenario_engine::step() {
  WSAN_REQUIRE(epoch_ < config_.epochs, "scenario already finished");
  epoch_record rec;
  rec.epoch = epoch_;
  const int e = epoch_;
  const int rpe = config_.runs_per_epoch;
  const int run0 = e * rpe;

  // -- 1. ground-truth node churn (one draw per node, in id order) ----
  {
    rng gen(derive_seed(config_.seed, static_cast<std::uint64_t>(e),
                        k_stream_churn));
    const node_id n = mgr_.view().topology.num_nodes();
    for (node_id node = 0; node < n; ++node) {
      if (down_.count(node) > 0) {
        if (gen.bernoulli(config_.churn.revival_rate)) {
          down_.erase(node);
          rec.revived.push_back(node);
          const auto it = open_crash_.find(node);
          if (it != open_crash_.end()) {
            global_faults_.crashes[it->second].restart_run = run0;
            open_crash_.erase(it);
          }
        }
      } else if (gen.bernoulli(config_.churn.crash_rate) &&
                 config_.churn.protected_nodes.count(node) == 0) {
        down_.insert(node);
        down_since_[node] = e;
        rec.crashed.push_back(node);
        open_crash_[node] = global_faults_.crashes.size();
        global_faults_.crashes.push_back({node, run0, -1});
        if (obs::events_enabled())
          obs::emit(obs::severity::warning, "scenario", "node_crash",
                    {{"node", node}, {"epoch", e}});
      }
    }
  }

  // -- 2. flow departures ---------------------------------------------
  if (config_.departure_rate > 0.0 && !flows_.empty()) {
    rng gen(derive_seed(config_.seed, static_cast<std::uint64_t>(e),
                        k_stream_departure));
    std::vector<flow::flow> kept;
    std::vector<std::uint64_t> kept_uids;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (gen.bernoulli(config_.departure_rate)) {
        ++rec.departures;
        continue;
      }
      kept.push_back(flows_[i]);
      kept_uids.push_back(uids_[i]);
    }
    flows_ = std::move(kept);
    uids_ = std::move(kept_uids);
    for (std::size_t i = 0; i < flows_.size(); ++i)
      flows_[i].id = static_cast<flow_id>(i);
  }

  // -- 3. flow arrivals (Poisson; backpressure before generation) -----
  if (config_.arrivals.rate > 0.0) {
    rng gen(derive_seed(config_.seed, static_cast<std::uint64_t>(e),
                        k_stream_arrival));
    const int offered = poisson_draw(gen, config_.arrivals.rate);
    rec.arrivals_offered = offered;
    for (int a = 0; a < offered; ++a) {
      if (static_cast<int>(flows_.size()) >= config_.arrivals.max_flows) {
        // Overloaded: reject without generating (and without consuming
        // generation draws) — backpressure must stay cheap when the
        // arrival process outpaces admission.
        ++rec.rejected_backpressure;
        obs::add_counter("scenario.rejected_backpressure");
        continue;
      }
      auto params = config_.flow_params;
      params.num_flows = 1;
      const auto pruned =
          graph::remove_nodes(mgr_.view().comm, mgr_.dead_nodes());
      flow::flow_set fs;
      try {
        fs = flow::generate_flow_set(pruned, params, gen);
      } catch (const std::runtime_error&) {
        ++rec.rejected_unroutable;
        obs::add_counter("scenario.rejected_unroutable");
        continue;
      }
      flow::flow candidate = std::move(fs.flows.front());
      candidate.id = static_cast<flow_id>(flows_.size());
      flows_.push_back(std::move(candidate));
      const auto tentative = mgr_.admit(flows_);
      if (tentative.schedulable) {
        uids_.push_back(next_uid_++);
        ++rec.arrivals_accepted;
      } else {
        flows_.pop_back();
        ++rec.rejected_admission;
        obs::add_counter("scenario.rejected_admission");
      }
    }
  }

  // -- 4. (re-)admission of the edited workload, shedding to fit ------
  const std::size_t demand = flows_.size();
  auto admitted = mgr_.admit_shedding(flows_);
  rec.shed_for_schedulability += static_cast<int>(demand - flows_.size());
  if (e == 0) rec.shed_for_schedulability += initial_shed_;
  uids_.resize(flows_.size());
  rec.schedulable = admitted.schedulable;

  // -- 5. SlotSwapper randomization -----------------------------------
  tsch::schedule executed = std::move(admitted.sched);
  if (config_.jammer.randomize && rec.schedulable && !flows_.empty()) {
    rng gen(derive_seed(config_.seed, static_cast<std::uint64_t>(e),
                        k_stream_swap));
    auto randomized = tsch::randomize_slots(executed, flows_, gen,
                                            config_.jammer.swap_attempts);
    rec.swaps_attempted = randomized.swaps_attempted;
    rec.swaps_applied = randomized.swaps_applied;
    executed = std::move(randomized.sched);
  }

  const bool have_traffic = rec.schedulable && !flows_.empty() &&
                            executed.num_transmissions() > 0;

  // -- 6. jammer prediction (pure function of the previous frame) -----
  if (config_.jammer.enabled && !prev_busy_.empty() &&
      config_.jammer.jam_slots > 0) {
    auto busy = prev_busy_;
    std::sort(busy.begin(), busy.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const std::size_t count = std::min(
        busy.size(), static_cast<std::size_t>(config_.jammer.jam_slots));
    for (std::size_t i = 0; i < count; ++i) {
      const slot_t slot = busy[i].second;
      ++rec.jam_predictions;
      global_faults_.jams.push_back({slot, run0, run0 + rpe});
      if (have_traffic && slot < executed.num_slots() &&
          executed.slot_load(slot) > 0)
        ++rec.jam_hits;
    }
  }

  if (have_traffic) {
    rec.num_slots = executed.num_slots();
    int busy = 0;
    for (slot_t s = 0; s < executed.num_slots(); ++s)
      if (executed.slot_load(s) > 0) ++busy;
    rec.busy_fraction =
        static_cast<double>(busy) / static_cast<double>(rec.num_slots);
  }

  // -- 7. one health-report epoch of simulation -----------------------
  sim::sim_result sim_result;
  if (have_traffic) {
    auto sc = config_.sim;
    sc.runs = rpe;
    sc.seed = derive_seed(config_.seed, static_cast<std::uint64_t>(e),
                          k_stream_sim);
    if (e < config_.interferer_onset_epoch) sc.interferers.clear();
    sc.faults = sim::slice_fault_plan(global_faults_, run0, rpe);
    sim_result = sim::run_simulation(mgr_.view().topology, executed, flows_,
                                     mgr_.view().channels, sc);
    rec.pdr = sim_result.network_pdr();
  }

  if (have_traffic) {
    // -- 8. online re-detection (maintain) ----------------------------
    const auto maintenance = mgr_.maintain(flows_, sim_result.links);
    for (const auto& report : maintenance.reports)
      if (report.verdict == detect::link_verdict::degraded_by_reuse)
        ++rec.rejected_links;
    rec.newly_isolated =
        static_cast<int>(maintenance.newly_isolated.size());
    // An unschedulable repair is resolved by next epoch's re-admission
    // (shed-to-fit); the epoch in flight keeps its executed schedule.

    // -- 9. watchdog recovery under bounded retry-with-backoff --------
    // recover() reports ids of flows_ (dense ranks); the engine owns the
    // identity that survives renumbering (uids_).
    bool recovered = false;
    for (int attempt = 0;
         attempt < config_.retry.max_attempts && !recovered; ++attempt) {
      try {
        if (config_.recovery_hook) config_.recovery_hook(e, attempt);
      } catch (...) {
        ++rec.recovery_retries;
        rec.recovery_backoff += config_.retry.backoff_base << attempt;
        obs::add_counter("scenario.recovery_retries");
        continue;
      }
      auto outcome = mgr_.recover(flows_, sim_result.links);
      recovered = true;
      rec.newly_dead = outcome.newly_dead;
      rec.rehabilitated = outcome.rehabilitated;
      for (const node_id node : outcome.newly_dead) {
        const auto it = down_since_.find(node);
        if (it != down_since_.end())
          rec.recovery_latency_epochs = std::max(
              rec.recovery_latency_epochs, e - it->second + 1);
      }
      rec.recovery_unroutable =
          static_cast<int>(outcome.unroutable_flows.size());
      rec.recovery_shed = static_cast<int>(outcome.shed_flows.size());
      if (outcome.rescheduled) {
        std::vector<std::uint64_t> surviving_uids;
        surviving_uids.reserve(outcome.surviving_input_ids.size());
        for (const flow_id id : outcome.surviving_input_ids)
          surviving_uids.push_back(uids_[static_cast<std::size_t>(id)]);
        flows_ = std::move(outcome.surviving_flows);
        uids_ = std::move(surviving_uids);
      }
    }
    rec.recovery_failed = !recovered;
    if (rec.recovery_failed) obs::add_counter("scenario.recovery_failed");
  }

  // -- bookkeeping for the next epoch ---------------------------------
  rec.num_flows = static_cast<int>(flows_.size());
  prev_busy_.clear();
  if (have_traffic) {
    for (slot_t s = 0; s < executed.num_slots(); ++s) {
      const int load = executed.slot_load(s);
      if (load > 0) prev_busy_.emplace_back(load, s);
    }
  }
  prev_num_slots_ = executed.num_slots();

  rec.digest = chain_digest(rec, executed);
  digest_ = rec.digest;
  ++epoch_;

  // -- temporal observability (never feeds back into the trace) -------
  if (config_.recorder != nullptr || !config_.slo.empty()) {
    const obs::series_window window = epoch_window(rec);
    // Record before triggering so a dump includes this epoch's window.
    if (config_.recorder != nullptr)
      config_.recorder->record_window(window);
    std::vector<obs::slo_violation> violations;
    evaluate_window(window, config_.slo, violations);
    const obs::slo_violation* first_error = nullptr;
    for (const auto& v : violations)
      if (v.sev == obs::severity::error && first_error == nullptr)
        first_error = &v;
    if (config_.recorder != nullptr) {
      if (rec.recovery_failed) {
        config_.recorder->trigger(
            obs::severity::error, "scenario", "recovery_exhausted",
            {{"epoch", rec.epoch},
             {"attempts", config_.retry.max_attempts},
             {"backoff", rec.recovery_backoff}});
      } else if (first_error != nullptr) {
        config_.recorder->trigger(
            obs::severity::error, "scenario", "slo_tripped",
            {{"epoch", rec.epoch},
             {"metric", first_error->metric},
             {"value", first_error->value},
             {"bound", first_error->bound},
             {"kind", obs::to_string(first_error->kind)}});
      }
    }
  }
  return rec;
}

obs::series_window epoch_window(const epoch_record& rec) {
  obs::series_window w;
  w.index = rec.epoch;
  auto& v = w.values;
  v["arrivals_offered"] = rec.arrivals_offered;
  v["arrivals_accepted"] = rec.arrivals_accepted;
  const int rejected = rec.rejected_backpressure + rec.rejected_unroutable +
                       rec.rejected_admission;
  v["rejected"] = rejected;
  v["rejection_rate"] =
      rec.arrivals_offered > 0
          ? static_cast<double>(rejected) /
                static_cast<double>(rec.arrivals_offered)
          : 0.0;
  v["departures"] = rec.departures;
  v["shed"] = rec.shed_for_schedulability + rec.recovery_shed;
  v["crashed"] = static_cast<double>(rec.crashed.size());
  v["revived"] = static_cast<double>(rec.revived.size());
  v["newly_dead"] = static_cast<double>(rec.newly_dead.size());
  v["rehabilitated"] = static_cast<double>(rec.rehabilitated.size());
  v["recovery_latency_epochs"] = rec.recovery_latency_epochs;
  v["recovery_retries"] = rec.recovery_retries;
  v["recovery_failed"] = rec.recovery_failed ? 1.0 : 0.0;
  v["rejected_links"] = rec.rejected_links;
  v["newly_isolated"] = rec.newly_isolated;
  v["num_flows"] = rec.num_flows;
  v["num_slots"] = rec.num_slots;
  v["busy_fraction"] = rec.busy_fraction;
  v["swaps_applied"] = rec.swaps_applied;
  v["jam_predictions"] = rec.jam_predictions;
  v["jam_hits"] = rec.jam_hits;
  v["jam_hit_rate"] =
      rec.jam_predictions > 0
          ? static_cast<double>(rec.jam_hits) /
                static_cast<double>(rec.jam_predictions)
          : 0.0;
  v["pdr"] = rec.pdr;
  return w;
}

obs::series scenario_series(const scenario_result& result) {
  obs::series s;
  s.name = "scenario";
  s.index_unit = "epoch";
  s.windows.reserve(result.epochs.size());
  for (const auto& rec : result.epochs)
    s.windows.push_back(epoch_window(rec));
  return s;
}

std::uint64_t scenario_engine::chain_digest(
    const epoch_record& rec, const tsch::schedule& executed) const {
  std::uint64_t h = digest_;
  fnv(h, static_cast<std::uint64_t>(rec.epoch));
  fnv(h, static_cast<std::uint64_t>(flows_.size()));
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto& f = flows_[i];
    fnv(h, uids_[i]);
    fnv(h, static_cast<std::uint64_t>(f.id));
    fnv(h, static_cast<std::uint64_t>(f.source));
    fnv(h, static_cast<std::uint64_t>(f.destination));
    fnv(h, static_cast<std::uint64_t>(f.period));
    fnv(h, static_cast<std::uint64_t>(f.deadline));
    fnv(h, static_cast<std::uint64_t>(f.uplink_links));
    for (const auto& l : f.route) {
      fnv(h, static_cast<std::uint64_t>(l.sender));
      fnv(h, static_cast<std::uint64_t>(l.receiver));
    }
  }
  for (const auto& p : executed.placements()) {
    fnv(h, static_cast<std::uint64_t>(p.tx.flow));
    fnv(h, static_cast<std::uint64_t>(p.tx.instance));
    fnv(h, static_cast<std::uint64_t>(p.tx.link_index));
    fnv(h, static_cast<std::uint64_t>(p.tx.attempt));
    fnv(h, static_cast<std::uint64_t>(p.slot));
    fnv(h, static_cast<std::uint64_t>(p.offset));
  }
  for (const node_id node : down_)
    fnv(h, static_cast<std::uint64_t>(node));
  for (const node_id node : mgr_.dead_nodes())
    fnv(h, static_cast<std::uint64_t>(node));
  for (const auto& [s, r] : mgr_.isolated_links()) {
    fnv(h, static_cast<std::uint64_t>(s));
    fnv(h, static_cast<std::uint64_t>(r));
  }
  fnv(h, static_cast<std::uint64_t>(rec.arrivals_offered));
  fnv(h, static_cast<std::uint64_t>(rec.arrivals_accepted));
  fnv(h, static_cast<std::uint64_t>(rec.rejected_backpressure));
  fnv(h, static_cast<std::uint64_t>(rec.rejected_unroutable));
  fnv(h, static_cast<std::uint64_t>(rec.rejected_admission));
  fnv(h, static_cast<std::uint64_t>(rec.departures));
  fnv(h, static_cast<std::uint64_t>(rec.shed_for_schedulability));
  fnv(h, static_cast<std::uint64_t>(rec.recovery_shed));
  fnv(h, static_cast<std::uint64_t>(rec.recovery_unroutable));
  fnv(h, static_cast<std::uint64_t>(rec.recovery_retries));
  fnv(h, static_cast<std::uint64_t>(rec.recovery_failed ? 1 : 0));
  fnv(h, static_cast<std::uint64_t>(rec.rejected_links));
  fnv(h, static_cast<std::uint64_t>(rec.newly_isolated));
  fnv(h, static_cast<std::uint64_t>(rec.swaps_applied));
  fnv(h, static_cast<std::uint64_t>(rec.jam_predictions));
  fnv(h, static_cast<std::uint64_t>(rec.jam_hits));
  fnv(h, std::bit_cast<std::uint64_t>(rec.pdr));
  return h;
}

scenario_result scenario_engine::run() {
  scenario_result out;
  int traffic_epochs = 0;
  double pdr_sum = 0.0;
  double busy_sum = 0.0;
  while (epoch_ < config_.epochs) {
    auto rec = step();
    out.total_arrivals_offered += rec.arrivals_offered;
    out.total_arrivals_accepted += rec.arrivals_accepted;
    out.total_rejected += rec.rejected_backpressure +
                          rec.rejected_unroutable + rec.rejected_admission;
    out.total_departures += rec.departures;
    out.total_crashes += static_cast<int>(rec.crashed.size());
    out.total_revivals += static_cast<int>(rec.revived.size());
    out.total_newly_dead += static_cast<int>(rec.newly_dead.size());
    out.total_rehabilitated += static_cast<int>(rec.rehabilitated.size());
    out.total_jam_predictions += rec.jam_predictions;
    out.total_jam_hits += rec.jam_hits;
    out.max_recovery_latency_epochs = std::max(
        out.max_recovery_latency_epochs, rec.recovery_latency_epochs);
    if (rec.num_slots > 0) {
      ++traffic_epochs;
      pdr_sum += rec.pdr;
      busy_sum += rec.busy_fraction;
    }
    out.epochs.push_back(std::move(rec));
  }
  if (traffic_epochs > 0) {
    out.mean_pdr = pdr_sum / traffic_epochs;
    out.mean_busy_fraction = busy_sum / traffic_epochs;
  }
  out.final_digest = digest_;
  return out;
}

epoch_record scenario_engine::replay(const topo::topology& topology,
                                     const scenario_config& config,
                                     int epoch) {
  WSAN_REQUIRE(epoch >= 0 && epoch < config.epochs,
               "replay epoch out of range");
  scenario_engine engine(topology, config);
  epoch_record rec;
  for (int e = 0; e <= epoch; ++e) rec = engine.step();
  return rec;
}

}  // namespace wsan::scenario
