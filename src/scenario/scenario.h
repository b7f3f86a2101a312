// Deterministic time-varying scenario engine (churn, jamming, recovery).
//
// Every experiment so far fed the manager a static snapshot: one
// topology, one flow set, at most a scripted one-shot fault plan. Real
// deployments are processes, not snapshots — flows arrive and depart,
// nodes crash and come back, the interference environment drifts, and
// (adversarially) a timing-predicting jammer studies one epoch's TSCH
// frame to blanket the busiest slots of the next. The scenario engine
// drives `manager::network_manager` epoch-by-epoch through exactly that
// lifecycle:
//
//   1. ground-truth node churn   (crash / revival processes)
//   2. flow departures           (per-flow Bernoulli)
//   3. flow arrivals             (Poisson, with admission control and
//                                 backpressure when the network is full)
//   4. scheduling + SlotSwapper randomization (tsch::randomize_slots)
//   5. jammer prediction         (previous epoch's busiest slots ->
//                                 sim::fault_plan jam records)
//   6. one health-report epoch of simulation (PRR drift via per-epoch
//                                 PHY streams; faults via
//                                 sim::slice_fault_plan)
//   7. online re-detection       (manager::maintain -> link isolation
//                                 feeds the next reschedule)
//   8. watchdog recovery         (manager::recover under bounded
//                                 retry-with-backoff; shedding when the
//                                 survivors no longer fit)
//
// Determinism contract: every random decision of epoch `e` draws from a
// dedicated generator seeded with derive_seed(config.seed, e, stream) —
// one stream id per event class below. No stream is shared across
// epochs or event classes, so a scenario trace is a pure function of
// (topology, config); re-running is bit-identical at any thread count
// and any single epoch's record can be re-derived with replay().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "flow/flow_generator.h"
#include "manager/network_manager.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "tsch/schedule.h"

namespace wsan::scenario {

// Event-stream ids for derive_seed(config.seed, epoch, stream). Fixed
// constants: renumbering them changes every scenario trace.
inline constexpr std::uint64_t k_stream_init = 0;       ///< initial workload
inline constexpr std::uint64_t k_stream_churn = 1;      ///< crash / revival
inline constexpr std::uint64_t k_stream_departure = 2;  ///< flow departures
inline constexpr std::uint64_t k_stream_arrival = 3;    ///< flow arrivals
inline constexpr std::uint64_t k_stream_swap = 4;       ///< SlotSwapper
inline constexpr std::uint64_t k_stream_sim = 5;        ///< per-epoch PHY

/// Flow arrival process: a Poisson number of arrivals per epoch, each an
/// independently generated single flow. Admission control is two-staged:
/// backpressure (the workload is at max_flows — reject before even
/// generating, keeping overload handling O(1) per rejected arrival) and
/// schedulability (the tentative admit with the new flow appended fails).
struct arrival_config {
  double rate = 1.0;   ///< Poisson mean arrivals per epoch; 0 disables
  /// Backpressure cap on the concurrent workload. Binds at all times:
  /// an over-sized initial population is clipped to its highest-priority
  /// prefix at construction.
  int max_flows = 40;
};

/// Ground-truth node churn: each epoch, every up node crashes with
/// probability crash_rate (unless protected — e.g. access points) and
/// every down node revives with probability revival_rate. Crashes enter
/// the epoch's fault plan (the node stops transmitting AND reporting),
/// so the manager only learns of them through its watchdog.
struct churn_config {
  double crash_rate = 0.0;
  double revival_rate = 0.25;
  std::set<node_id> protected_nodes;
};

/// The timing-predicting jammer: having observed epoch e-1's executed
/// frame, it blankets the `jam_slots` busiest slots during epoch e (a
/// wideband jam: sim::jammed_slot). With randomize off the frame repeats
/// and the prediction is nearly perfect; with the SlotSwapper pass on,
/// the busy set is re-permuted every epoch and the hit rate collapses
/// toward the uniform-guess baseline (the frame's busy fraction).
struct jammer_config {
  bool enabled = false;
  int jam_slots = 4;
  bool randomize = false;   ///< apply the SlotSwapper pass each epoch
  int swap_attempts = 128;  ///< swap candidates per epoch
};

/// Bounded retry-with-backoff around the recovery path. The manager's
/// recover() itself is deterministic, but distributing a repaired
/// schedule over a lossy management plane is not — config.recovery_hook
/// models that by throwing to fail an attempt. Each retry doubles the
/// (logical) backoff; when all attempts fail the epoch keeps the
/// previous schedule and recovery is retried next epoch.
struct retry_config {
  int max_attempts = 3;
  int backoff_base = 1;  ///< logical backoff units before attempt k+1
};

struct scenario_config {
  int epochs = 12;
  /// Schedule executions (simulator runs) per health-report epoch.
  int runs_per_epoch = 18;
  std::uint64_t seed = 1;
  /// Initial workload recipe; num_flows is the initial population, and
  /// the same template (num_flows forced to 1) generates each arrival.
  flow::flow_set_params flow_params;
  /// Per-flow per-epoch departure probability; 0 disables departures.
  double departure_rate = 0.0;
  arrival_config arrivals;
  churn_config churn;
  jammer_config jammer;
  retry_config retry;
  manager::manager_config manager;
  /// Base PHY configuration. runs, seed, and faults are overwritten per
  /// epoch (epoch e draws its PHY randomness, fading and drift, from
  /// derive_seed(seed, e, k_stream_sim)); interferers are active from
  /// interferer_onset_epoch on.
  sim::sim_config sim;
  int interferer_onset_epoch = 0;
  /// Test hook invoked before every recovery attempt as
  /// hook(epoch, attempt); throwing fails that attempt (see
  /// retry_config). Not part of the deterministic trace unless the hook
  /// itself is deterministic.
  std::function<void(int, int)> recovery_hook;
  /// SLO rules evaluated against every epoch's metric window (see
  /// epoch_window); empty disables evaluation. Violations emit obs
  /// events and error-severity ones trip the flight recorder. The
  /// evaluation never feeds back into the trace — digests and records
  /// are identical with and without a policy.
  obs::slo_policy slo;
  /// Non-owning anomaly flight recorder. When set, every epoch's
  /// window is recorded and a post-mortem dump is triggered the epoch
  /// recovery exhausts its retries or an error-severity SLO rule trips.
  obs::flight_recorder* recorder = nullptr;
};

/// Everything that happened in one epoch, plus the chained state digest.
struct epoch_record {
  int epoch = 0;

  // Workload churn.
  int arrivals_offered = 0;
  int arrivals_accepted = 0;
  int rejected_backpressure = 0;  ///< workload at max_flows
  int rejected_unroutable = 0;    ///< no route on the pruned graph
  int rejected_admission = 0;     ///< tentative schedule did not fit
  int departures = 0;
  /// Flows dropped to fit: at this epoch's re-admission and, in epoch
  /// 0, by the initial admission of the constructor.
  int shed_for_schedulability = 0;

  // Ground-truth node churn.
  std::vector<node_id> crashed;
  std::vector<node_id> revived;

  // Manager (watchdog) view.
  std::vector<node_id> newly_dead;
  std::vector<node_id> rehabilitated;
  /// Epochs from ground-truth crash to watchdog declaration, maximised
  /// over this epoch's newly-dead nodes (0 when none died).
  int recovery_latency_epochs = 0;
  int recovery_shed = 0;        ///< flows shed by recover()
  int recovery_unroutable = 0;  ///< flows dropped as unroutable
  int recovery_retries = 0;     ///< failed recovery attempts this epoch
  int recovery_backoff = 0;     ///< logical backoff units spent
  bool recovery_failed = false; ///< all attempts failed; kept old state

  // Detection / rescheduling.
  int rejected_links = 0;   ///< degraded_by_reuse verdicts this epoch
  int newly_isolated = 0;   ///< links newly isolated by maintain()

  // Schedule + jammer.
  bool schedulable = true;
  int num_flows = 0;        ///< workload size at the end of the epoch
  int num_slots = 0;        ///< executed frame length (0: idle epoch)
  double busy_fraction = 0.0;  ///< busy slots / num_slots
  int swaps_attempted = 0;
  int swaps_applied = 0;
  int jam_predictions = 0;
  int jam_hits = 0;         ///< predicted slots that were in fact busy
  double pdr = 1.0;         ///< network PDR over the epoch's runs

  /// FNV-1a state digest chained from the previous epoch: covers the
  /// workload (uids + routes), the executed placements, the ground-truth
  /// down set, the manager's dead set and isolations, and the epoch's
  /// counters. Equal digests at epoch e mean equal trajectories through
  /// epoch e.
  std::uint64_t digest = 0;
};

struct scenario_result {
  std::vector<epoch_record> epochs;
  std::uint64_t final_digest = 0;

  // Totals folded over the epochs.
  int total_arrivals_offered = 0;
  int total_arrivals_accepted = 0;
  int total_rejected = 0;      ///< all three rejection classes
  int total_departures = 0;
  int total_crashes = 0;
  int total_revivals = 0;
  int total_newly_dead = 0;
  int total_rehabilitated = 0;
  int total_jam_predictions = 0;
  int total_jam_hits = 0;
  double mean_pdr = 1.0;       ///< over epochs that carried traffic
  double mean_busy_fraction = 0.0;
  int max_recovery_latency_epochs = 0;

  double jam_hit_rate() const {
    return total_jam_predictions == 0
               ? 0.0
               : static_cast<double>(total_jam_hits) /
                     static_cast<double>(total_jam_predictions);
  }
};

/// Knuth's Poisson sampler on the repo's deterministic rng: the
/// engine's arrival process, a pure function of the rng stream.
int poisson_draw(rng& gen, double mean);

/// The per-epoch metric window derived from one epoch record — the
/// series contract shared by the SLO layer, the flight recorder, and
/// `wsanctl health`: pdr, rejection_rate, jam_hit_rate,
/// recovery_failed, and the raw churn/recovery/jammer counts.
obs::series_window epoch_window(const epoch_record& rec);

/// Folds a finished scenario into an epoch-indexed series.
obs::series scenario_series(const scenario_result& result);

class scenario_engine {
 public:
  /// Builds the manager for the topology and admits the initial
  /// workload (stream k_stream_init of epoch 0). Shedding applies if
  /// the initial population does not fit; epoch 0's
  /// shed_for_schedulability counts the flows it drops.
  scenario_engine(topo::topology topology, scenario_config config);

  const manager::network_manager& manager() const { return mgr_; }
  const std::vector<flow::flow>& flows() const { return flows_; }
  /// Scenario-stable identity of each current flow, aligned with
  /// flows() — survives the dense renumbering of recovery and churn.
  const std::vector<std::uint64_t>& flow_uids() const { return uids_; }
  int epoch() const { return epoch_; }

  /// Runs one epoch (the 8 phases in the file comment) and returns its
  /// record.
  epoch_record step();

  /// Runs all remaining epochs and folds the records.
  scenario_result run();

  /// Re-derives one epoch's record from scratch: re-executes epochs
  /// 0..epoch on a fresh engine and returns epoch's record. Because
  /// every stream is a pure function of (seed, epoch, stream), the
  /// record — including the chained digest — is identical to the full
  /// run's.
  static epoch_record replay(const topo::topology& topology,
                             const scenario_config& config, int epoch);

 private:
  std::uint64_t chain_digest(const epoch_record& rec,
                             const tsch::schedule& executed) const;

  scenario_config config_;
  manager::network_manager mgr_;
  std::vector<flow::flow> flows_;    // dense ids == priority ranks
  std::vector<std::uint64_t> uids_;  // aligned with flows_
  std::uint64_t next_uid_ = 0;
  int initial_shed_ = 0;  // flows the constructor shed, counted in epoch 0
  int epoch_ = 0;
  // Ground truth (the simulator's world, unknown to the manager).
  std::set<node_id> down_;
  std::map<node_id, int> down_since_;    // epoch of the crash
  sim::fault_plan global_faults_;        // global run indices
  std::map<node_id, std::size_t> open_crash_;  // node -> crashes index
  // Previous epoch's executed frame, as the jammer observed it:
  // (load, slot) of every busy slot.
  std::vector<std::pair<int, slot_t>> prev_busy_;
  slot_t prev_num_slots_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV offset basis
};

}  // namespace wsan::scenario
