// Slot-level TSCH network simulator.
//
// Executes a transmission schedule against the testbed's physical layer:
// channel hopping maps each (ASN, offset) cell to a physical channel,
// concurrent transmissions on the same physical channel interfere with
// each other (SINR + capture effect), external interferers add to the
// noise on overlapping channels, and source-routing retransmission slots
// fire only when the primary attempt failed. Produces the per-flow
// Packet Delivery Ratio (Figure 8) and the per-link PRR sample streams,
// split into channel-reuse and contention-free slots, that feed the
// detection policy of Section VI (Figures 10, 11).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "flow/flow.h"
#include "phy/capture.h"
#include "sim/energy.h"
#include "sim/faults.h"
#include "sim/interference.h"
#include "topo/topology.h"
#include "tsch/schedule.h"

namespace wsan::sim {

struct sim_config {
  /// Number of schedule executions ("the network executes the schedule
  /// 100 times", Section VII-D). ASN runs continuously across
  /// executions, so a cell hops across all physical channels.
  int runs = 100;
  std::uint64_t seed = 42;
  double capture_threshold_db = 4.0;
  double capture_transition_db = 6.0;
  std::vector<external_interferer> interferers;
  /// First run (schedule execution) in which the external interferers
  /// are switched on; earlier runs are clean. Models an interference
  /// source appearing mid-deployment (e.g. a WiFi access point being
  /// installed), so detection latency across health-report epochs can be
  /// studied. 0 = interference present from the start.
  int interferer_start_run = 0;
  /// Standard deviation (dB) of the calibration drift between the
  /// topology-measurement campaign and the experiment: a static
  /// per-(node pair, channel) offset applied to every link for the whole
  /// simulation. The network manager's graphs (and therefore the
  /// schedule) are built from the campaign snapshot; by the time the
  /// schedule runs, multipath and environment changes have moved each
  /// channel's response by several dB. This is the paper's core premise
  /// — interference estimates "incur significant overhead and errors,
  /// especially in the presence of temporal variations" (Section I) — and
  /// it is what lets a pair that measured PRR 0 during the campaign
  /// deliver real interference at run time. Set to 0 for a perfectly
  /// calibrated world.
  ///
  /// The drift is asymmetric by construction: pairs that carry scheduled
  /// traffic are *maintained* — nodes report their PRRs to the manager
  /// every health-report epoch, and a degraded link would be rerouted —
  /// so they drift by the small maintained_drift_sigma_db. The quadratic
  /// number of non-traffic pairs is never re-measured; those drift by
  /// the full calibration_drift_sigma_db.
  double calibration_drift_sigma_db = 6.0;
  double maintained_drift_sigma_db = 1.0;
  /// Fraction of unmaintained pairs that are *intermittent*: low-power
  /// wireless links are bimodal (Cerpa et al.; Srinivasan et al.'s beta
  /// factor), and the intermittent population swings by tens of dB over
  /// hours. These are the pairs whose campaign-time "PRR = 0" reading is
  /// most dangerously stale.
  double intermittent_fraction = 0.15;
  /// Drift std-dev (dB) of the intermittent population.
  double intermittent_sigma_db = 12.0;
  /// Standard deviation (dB) of slow temporal fading: a per-(node pair,
  /// run) deviation applied to every link of that pair during the run.
  /// Real deployments see link qualities drift over minutes ("dynamic
  /// changes in channel or environmental conditions", Section VI); this
  /// is what occasionally turns a sub-noise-floor interferer into a real
  /// one and a healthy link into a marginal one. Links engineered with
  /// PRR >= 0.9 margins shrug off most dips (especially with a retry),
  /// but links sharing a channel see their SINR margin — already thinned
  /// by reuse — erased in bad runs. Set to 0 for a static channel.
  double temporal_fading_sigma_db = 2.0;
  /// Radio energy model used for the energy report.
  energy_model energy;
  /// Fault script executed during the simulation (node crashes, directed
  /// link failures, suppressed health reports), at run granularity. An
  /// empty plan is a strict no-op: the output is bit-identical to a run
  /// without fault support, so every figure and bench is unaffected.
  fault_plan faults;
  /// Selects the fast engine (DESIGN.md §10): allocation-free in steady
  /// state, with dense per-link tables and every derived value (fades,
  /// drift, interferer activity, probe draws) taken from the
  /// counter-based kernels of common/batch_rng.h. The naive engine —
  /// one derived-RNG re-seed per live_rssi call, per-run std::map
  /// accumulators, per-slot vectors — remains compiled in as the
  /// reference, like the scheduler's use_occupancy_index. The fast
  /// engine draws the same distributions through different transforms
  /// and streams, so the two agree bitwise only on the mechanics they
  /// share (tests/sim_equivalence_test.cpp) and statistically
  /// everywhere else (tests/fade_equivalence_test.cpp). Each engine is
  /// deterministic per (config, seed) on every host.
  bool use_fast_path = true;
  /// Neighbor-discovery probe transmissions per link per run. The
  /// WirelessHART manager reserves contention-free slots for periodic
  /// neighbor-discovery broadcasts (Section VI); these give every link —
  /// including links whose data slots are all shared — a contention-free
  /// PRR sample stream for the detector to compare against. Probes are
  /// subject to external interference but never to in-network
  /// concurrency, and do not affect packet delivery.
  int probes_per_run = 2;
};

/// Directed link identity.
struct link_key {
  node_id sender = k_invalid_node;
  node_id receiver = k_invalid_node;

  friend auto operator<=>(const link_key&, const link_key&) = default;
};

/// Per-link observation stream. One PRR sample per schedule execution
/// (run) in which the link had at least one attempt of that kind — the
/// statistics a WirelessHART node reports to the network manager.
struct link_observations {
  /// (run index, PRR in that run) for slots where the link's cell is
  /// shared with other transmissions.
  std::vector<std::pair<int, double>> reuse_samples;
  /// Same for contention-free (exclusive) cells.
  std::vector<std::pair<int, double>> cf_samples;
  long long reuse_attempts = 0;
  long long reuse_successes = 0;
  long long cf_attempts = 0;
  long long cf_successes = 0;

  // Ground truth (unobservable in a real network, known to the
  // simulator): the expected number of data packets this link lost to
  // each interference source, computed counterfactually per attempt as
  // the reception probability without that source minus the actual one.
  // Used to score the detection policy (precision/recall).
  double expected_loss_internal = 0.0;  ///< due to in-network reuse
  double expected_loss_external = 0.0;  ///< due to external interferers

  long long total_attempts() const { return reuse_attempts + cf_attempts; }

  /// Expected fraction of this link's data traffic lost to channel reuse.
  double reuse_loss_rate() const {
    return total_attempts() == 0
               ? 0.0
               : expected_loss_internal /
                     static_cast<double>(total_attempts());
  }

  /// Expected fraction lost to external interference.
  double external_loss_rate() const {
    return total_attempts() == 0
               ? 0.0
               : expected_loss_external /
                     static_cast<double>(total_attempts());
  }

  double overall_reuse_prr() const {
    return reuse_attempts == 0 ? 1.0
                               : static_cast<double>(reuse_successes) /
                                     static_cast<double>(reuse_attempts);
  }
  double overall_cf_prr() const {
    return cf_attempts == 0 ? 1.0
                            : static_cast<double>(cf_successes) /
                                  static_cast<double>(cf_attempts);
  }

  /// Exact equality (bitwise on doubles), for the engine gates.
  friend bool operator==(const link_observations&,
                         const link_observations&) = default;
};

struct sim_result {
  /// Packet Delivery Ratio per flow id: delivered instances / released
  /// instances over all runs.
  std::vector<double> flow_pdr;
  /// Observation streams for every link that appears in the schedule.
  std::map<link_key, link_observations> links;
  long long instances_released = 0;
  long long instances_delivered = 0;
  /// Radio energy accounting over the whole simulation.
  energy_report energy;

  double network_pdr() const {
    return instances_released == 0
               ? 1.0
               : static_cast<double>(instances_delivered) /
                     static_cast<double>(instances_released);
  }

  /// Exact equality of every output channel (flow PDRs, observation
  /// streams, energy, counters) — what "bit-identical engines" means.
  friend bool operator==(const sim_result&, const sim_result&) = default;
};

/// Temporal fading in dB: deterministic per (run, unordered pair,
/// channel), zero when the configured sigma is. The naive engine's
/// kernel (xoshiro + libm Box-Muller over the coordinate's seed chain);
/// exposed for the drift/fade corner tests.
double compute_fade_db(const sim_config& config, int run, node_id a,
                       node_id b, channel_t ch);

/// Calibration drift in dB: deterministic per (unordered pair, channel).
/// `maintained` selects the small maintained sigma; unmaintained pairs
/// draw their intermittence class from a pair-level (channel
/// independent) stream. Returns exactly 0.0 when the selected sigma is
/// <= 0. The naive engine's kernel, exposed like compute_fade_db.
double compute_drift_db(const sim_config& config, bool maintained,
                        node_id a, node_id b, channel_t ch);

/// Validates the configuration's numeric invariants (positive run count,
/// non-negative and finite sigmas, intermittent fraction in [0, 1],
/// non-negative probe count and interferer onset, a finite capture
/// threshold, a positive finite capture transition width, a
/// structurally valid fault plan). Throws std::invalid_argument on violation — hostile
/// configurations must fail loudly, never silently produce garbage.
void validate_sim_config(const sim_config& config);

/// Runs the simulation. The schedule must have been produced for exactly
/// these flows (validated: every placement must reference a known flow),
/// the configuration must pass validate_sim_config, and the topology's
/// link model must have a positive transition width.
sim_result run_simulation(const topo::topology& topo,
                          const tsch::schedule& sched,
                          const std::vector<flow::flow>& flows,
                          const std::vector<channel_t>& channels,
                          const sim_config& config);

}  // namespace wsan::sim
