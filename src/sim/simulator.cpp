#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <set>

#include "common/batch_rng.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phy/channel.h"
#include "tsch/hopping.h"

namespace wsan::sim {

namespace {

/// A transmission as laid out for fast slot iteration.
struct slot_entry {
  tsch::transmission tx;
  offset_t offset = k_invalid_offset;
  bool reuse_cell = false;  ///< scheduled cell holds >= 2 transmissions
  int so_mod = 0;  ///< (slot + offset) mod |channels|
};

/// Per-run accumulation of one link's attempts/successes by slot kind.
struct link_run_counts {
  int reuse_attempts = 0;
  int reuse_successes = 0;
  int cf_attempts = 0;
  int cf_successes = 0;
  double loss_internal = 0.0;
  double loss_external = 0.0;
};

/// Flattens the schedule for slot-major iteration, validating every
/// transmission's indices up front: the inner loop indexes
/// progress[flow][instance], flows[flow].route[link_index], and the
/// per-node energy array with these values, so a malformed schedule must
/// fail loudly here instead of corrupting memory later.
std::vector<std::vector<slot_entry>> flatten_schedule(
    const tsch::schedule& sched, const std::vector<flow::flow>& flows,
    int num_nodes, int num_channels) {
  const slot_t hp = sched.num_slots();
  std::vector<std::vector<slot_entry>> by_slot(
      static_cast<std::size_t>(hp));
  for (slot_t s = 0; s < hp; ++s) {
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto cell = sched.cell(s, c);
      for (const auto& tx : cell) {
        WSAN_REQUIRE(tx.flow >= 0 &&
                         tx.flow < static_cast<flow_id>(flows.size()),
                     "schedule references an unknown flow");
        const auto& f = flows[static_cast<std::size_t>(tx.flow)];
        WSAN_REQUIRE(tx.instance >= 0 && tx.instance < f.instances_in(hp),
                     "schedule transmission has an out-of-range instance");
        WSAN_REQUIRE(tx.link_index >= 0 &&
                         tx.link_index <
                             static_cast<int>(f.route.size()),
                     "schedule transmission has an out-of-range route "
                     "link index");
        WSAN_REQUIRE(tx.sender >= 0 && tx.sender < num_nodes &&
                         tx.receiver >= 0 && tx.receiver < num_nodes,
                     "schedule transmission references a node outside "
                     "the topology");
        slot_entry entry{tx, c, cell.size() >= 2,
                         static_cast<int>((s + c) % num_channels)};
        by_slot[static_cast<std::size_t>(s)].push_back(entry);
      }
    }
  }
  return by_slot;
}

// Seed chains for the derived-RNG kernels. Both engines share these
// integer chains verbatim and differ only in the transform applied to
// the final 64-bit seed (xoshiro + libm Box-Muller in the naive engine,
// the counter-based batch kernels in the fast one), so a coordinate's
// identity is engine-independent.

/// Run-level prefix of the fade chain: everything that does not depend
/// on the pair/channel, hoisted so the fast engine computes it once per
/// run. Returns (state, first mixed output).
struct fade_run_prefix {
  std::uint64_t state = 0;
  std::uint64_t z = 0;
};

inline fade_run_prefix fade_prefix(std::uint64_t seed, int run) {
  std::uint64_t st =
      seed ^ (k_splitmix64_increment + static_cast<std::uint64_t>(run));
  fade_run_prefix p;
  p.z = splitmix64(st);
  p.state = st;
  return p;
}

/// Tail of the fade chain: folds the unordered pair and channel into
/// the run prefix, yielding the coordinate's fade seed.
inline std::uint64_t fade_seed(const fade_run_prefix& prefix, node_id a,
                               node_id b, channel_t ch) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  std::uint64_t state = prefix.state ^ (prefix.z + (lo << 32 | hi));
  state ^= splitmix64(state) + static_cast<std::uint64_t>(ch);
  return splitmix64(state);
}

/// Pair-level state of the drift chain (intermittence classification
/// keys off this alone — intermittence is a property of the pair, not
/// of one channel).
inline std::uint64_t drift_pair_state(std::uint64_t seed, node_id a,
                                      node_id b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  std::uint64_t pair_state = seed ^ 0xd51f7ULL;
  pair_state ^= splitmix64(pair_state) + (lo << 32 | hi);
  return pair_state;
}

/// Per-channel drift seed derived from the pair state.
inline std::uint64_t drift_chan_seed(std::uint64_t pair_state,
                                     channel_t ch) {
  std::uint64_t state = pair_state;
  state ^= splitmix64(state) + static_cast<std::uint64_t>(ch);
  return splitmix64(state);
}

/// Drift sigma selection shared by both engines up to the intermittence
/// draw, which each engine takes from its own transform of the pair
/// seed.
inline double drift_sigma(const sim_config& config, bool maintained,
                          double intermittent_u) {
  if (maintained) {
    // Used links are re-measured every health-report epoch; a link
    // that went intermittent would be rerouted, so in steady state
    // the maintained population only sees small drift.
    return config.maintained_drift_sigma_db;
  }
  return intermittent_u < config.intermittent_fraction
             ? config.intermittent_sigma_db
             : config.calibration_drift_sigma_db;
}

/// Stream index for the fast engine's derived per-run interferer
/// activity stream: derive_seed(config.seed, k_interferer_stream, run).
/// Any fixed value distinct from the point indexes the experiment
/// harness feeds derive_seed works; collisions would only correlate
/// streams, not break determinism.
inline constexpr std::uint64_t k_interferer_stream = 0x1f7eedULL;

/// Stream index for the fast engine's derived per-run probe stream
/// (channel picks and Bernoulli thresholds; same derivation pattern as
/// the interferer stream above).
inline constexpr std::uint64_t k_probe_stream = 0x9b0be5ULL;

/// dBm <-> mW conversion constants for the fast engine's SINR path:
/// pow(10, x/10) == exp(x * ln10/10) and 10*log10(m) == 10/ln10 *
/// ln(m), routed through batch_detail's poly_exp/poly_log.
inline constexpr double k_ln10_over_10 = std::numbers::ln10 / 10.0;
inline constexpr double k_10_over_ln10 = 10.0 / std::numbers::ln10;

/// Shared tail of both engines: totals, per-flow PDR, obs counters.
void finalize_result(sim_result& result,
                     const std::vector<flow::flow>& flows,
                     const std::vector<long long>& released,
                     const std::vector<long long>& delivered,
                     const sim_config& config) {
  for (double mj : result.energy.per_node_mj)
    result.energy.total_mj += mj;

  result.flow_pdr.resize(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    result.flow_pdr[fi] =
        released[fi] == 0 ? 1.0
                          : static_cast<double>(delivered[fi]) /
                                static_cast<double>(released[fi]);
    result.instances_released += released[fi];
    result.instances_delivered += delivered[fi];
  }
  if (wsan::obs::enabled()) {
    wsan::obs::add_counter("sim.simulations");
    wsan::obs::add_counter("sim.runs",
                           static_cast<std::uint64_t>(config.runs));
    wsan::obs::add_counter(
        "sim.data_transmissions",
        static_cast<std::uint64_t>(result.energy.data_transmissions));
    wsan::obs::add_counter(
        "sim.idle_listens",
        static_cast<std::uint64_t>(result.energy.idle_listens));
    wsan::obs::add_counter(
        "sim.instances_released",
        static_cast<std::uint64_t>(result.instances_released));
    wsan::obs::add_counter(
        "sim.instances_delivered",
        static_cast<std::uint64_t>(result.instances_delivered));
  }
}

// ---------------------------------------------------------------------
// Naive engine: the original implementation, kept verbatim as the
// reference the fast engine is tested against (sim_equivalence_test,
// fade_equivalence_test).
// Every live_rssi call re-seeds derived splitmix64 RNGs and samples
// normals; accumulators are per-run std::map/std::set; every slot
// allocates its scratch vectors.

sim_result run_simulation_naive(const topo::topology& topo,
                                const tsch::schedule& sched,
                                const std::vector<flow::flow>& flows,
                                const std::vector<channel_t>& channels,
                                const sim_config& config) {
  const slot_t hp = sched.num_slots();

  const auto by_slot = flatten_schedule(sched, flows, topo.num_nodes(),
                                        static_cast<int>(channels.size()));

  // Distinct links appearing in the schedule: probed by neighbor
  // discovery and maintained (fresh statistics) by health reports.
  std::vector<link_key> schedule_links;
  std::set<std::pair<node_id, node_id>> maintained_pairs;
  {
    std::map<link_key, bool> seen;
    for (const auto& p : sched.placements()) {
      seen[link_key{p.tx.sender, p.tx.receiver}] = true;
      maintained_pairs.insert({std::min(p.tx.sender, p.tx.receiver),
                               std::max(p.tx.sender, p.tx.receiver)});
    }
    if (config.probes_per_run > 0)
      for (const auto& [key, unused] : seen) schedule_links.push_back(key);
  }

  phy::capture_params capture;
  capture.capture_threshold_db = config.capture_threshold_db;
  capture.transition_width_db = config.capture_transition_db;
  capture.link = topo.link_model();

  interference_field field(topo, config.interferers, config.seed ^ 0x5eedULL);
  rng gen(config.seed);
  fault_state faults(config.faults, topo.num_nodes());

  const auto drift_db = [&](node_id a, node_id b, channel_t ch) {
    const bool maintained =
        maintained_pairs.count({std::min(a, b), std::max(a, b)}) > 0;
    return compute_drift_db(config, maintained, a, b, ch);
  };

  // Effective RSSI at experiment time.
  const auto live_rssi = [&](int run, node_id sender, node_id receiver,
                             channel_t ch) {
    return topo.rssi_dbm(sender, receiver, ch) +
           drift_db(sender, receiver, ch) +
           compute_fade_db(config, run, sender, receiver, ch);
  };

  // Packet progress per (flow, instance): index of the next route link
  // awaiting delivery; -1 marks a dead instance (both attempts failed).
  std::vector<std::vector<int>> progress(flows.size());
  std::vector<long long> delivered(flows.size(), 0);
  std::vector<long long> released(flows.size(), 0);

  sim_result result;
  result.energy.per_node_mj.assign(
      static_cast<std::size_t>(topo.num_nodes()), 0.0);
  const auto& em = config.energy;
  auto& energy = result.energy;

  for (int run = 0; run < config.runs; ++run) {
    faults.begin_run(run);
    // Reset per-run packet state; every instance releases anew.
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      const int instances = flows[fi].instances_in(hp);
      progress[fi].assign(static_cast<std::size_t>(instances), 0);
      released[fi] += instances;
    }
    std::map<link_key, link_run_counts> run_counts;

    for (slot_t s = 0; s < hp; ++s) {
      const auto& entries = by_slot[static_cast<std::size_t>(s)];
      if (entries.empty()) continue;
      const tsch::asn_t asn =
          static_cast<tsch::asn_t>(run) * hp + s;

      // Which scheduled transmissions actually fire: the packet must be
      // waiting at the link's sender (primary failed -> retry fires;
      // primary succeeded -> retry slot stays silent).
      std::vector<const slot_entry*> active;
      std::vector<channel_t> active_channel;
      for (const auto& entry : entries) {
        const auto fi = static_cast<std::size_t>(entry.tx.flow);
        const int prog = progress[fi][static_cast<std::size_t>(
            entry.tx.instance)];
        // A crashed sender is silent; a crashed receiver's radio is off
        // (no guard window, no energy).
        const bool sender_crashed = faults.node_down(entry.tx.sender);
        if (prog != entry.tx.link_index || sender_crashed) {
          // Nothing on the air for this entry: the sender either knows
          // its queue is empty and sleeps, or is dead. An alive receiver
          // must still open its guard window.
          if (!faults.node_down(entry.tx.receiver)) {
            energy.per_node_mj[static_cast<std::size_t>(
                entry.tx.receiver)] += em.idle_listen_mj;
            ++energy.idle_listens;
          }
          continue;  // done, dead, past, or crashed
        }
        active.push_back(&entry);
        active_channel.push_back(
            tsch::physical_channel(asn, entry.offset, channels));
      }
      if (active.empty()) continue;

      const std::vector<bool> interferers_active = field.sample_active(gen);

      // Evaluate receptions against the snapshot of concurrent activity.
      std::vector<bool> success(active.size(), false);
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto& tx = active[i]->tx;
        const channel_t ch = active_channel[i];
        const double signal = live_rssi(run, tx.sender, tx.receiver, ch);
        std::vector<double> internal;
        for (std::size_t j = 0; j < active.size(); ++j) {
          if (j == i || active_channel[j] != ch) continue;
          internal.push_back(
              live_rssi(run, active[j]->tx.sender, tx.receiver, ch));
        }
        std::vector<double> external;
        for (int k = 0; k < field.num_interferers(); ++k) {
          if (!interferers_active[static_cast<std::size_t>(k)]) continue;
          if (const auto power = field.power_at(k, tx.receiver, ch))
            external.push_back(*power);
        }
        std::vector<double> combined = internal;
        combined.insert(combined.end(), external.begin(), external.end());
        const double p =
            phy::reception_probability(capture, signal, combined);
        // A crashed receiver, failed link, or jammed slot loses the
        // packet regardless of the channel (the sender, not knowing,
        // transmits anyway and still interferes with concurrent
        // receptions). The Bernoulli draw is consumed either way so a
        // fault does not reshuffle the sample path of unrelated links
        // within the slot.
        const bool faulted_rx = faults.node_down(tx.receiver) ||
                                faults.link_down(tx.sender, tx.receiver) ||
                                faults.slot_jammed(s);
        success[i] = gen.bernoulli(p) && !faulted_rx;

        // Ground-truth attribution (counterfactual reception). Fault
        // losses are neither internal nor external interference.
        auto& counts =
            run_counts[link_key{tx.sender, tx.receiver}];
        if (!internal.empty() && !faulted_rx) {
          counts.loss_internal +=
              phy::reception_probability(capture, signal, external) - p;
        }
        if (!external.empty() && !faulted_rx) {
          counts.loss_external +=
              phy::reception_probability(capture, signal, internal) - p;
        }
      }

      // Apply outcomes: advance or (on a failed retry) kill the packet.
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto& entry = *active[i];
        const auto& tx = entry.tx;
        const auto fi = static_cast<std::size_t>(tx.flow);
        auto& prog =
            progress[fi][static_cast<std::size_t>(tx.instance)];

        auto& counts = run_counts[link_key{tx.sender, tx.receiver}];
        if (entry.reuse_cell) {
          ++counts.reuse_attempts;
          counts.reuse_successes += success[i] ? 1 : 0;
        } else {
          ++counts.cf_attempts;
          counts.cf_successes += success[i] ? 1 : 0;
        }

        // Energy: sender transmits and listens for the ACK; an alive
        // receiver listens for the packet and ACKs only what it decoded
        // (a crashed receiver's radio draws nothing).
        energy.per_node_mj[static_cast<std::size_t>(tx.sender)] +=
            em.tx_packet_mj + em.rx_ack_mj;
        if (!faults.node_down(tx.receiver)) {
          energy.per_node_mj[static_cast<std::size_t>(tx.receiver)] +=
              em.rx_packet_mj + (success[i] ? em.tx_ack_mj : 0.0);
        }
        ++energy.data_transmissions;

        if (success[i]) {
          ++prog;
          if (prog == static_cast<int>(flows[fi].route.size()))
            ++delivered[fi];
        }
        // A failed final attempt leaves prog at the link; later slots of
        // this instance reference higher link indexes and stay silent,
        // which is exactly the dedicated-slot semantics of source
        // routing. (The retry for this link, if still pending, fires.)
      }
    }

    // Neighbor-discovery probes: contention-free broadcasts that hop
    // across the channel list, exposed only to external interference.
    for (const auto& link : schedule_links) {
      if (faults.node_down(link.sender)) continue;  // dead nodes are mute
      const bool probe_faulted = faults.node_down(link.receiver) ||
                                 faults.link_down(link.sender,
                                                  link.receiver);
      auto& counts = run_counts[link];
      for (int probe = 0; probe < config.probes_per_run; ++probe) {
        const channel_t ch = channels[static_cast<std::size_t>(
            gen.uniform_int(0,
                            static_cast<std::int64_t>(channels.size()) -
                                1))];
        const double signal = live_rssi(run, link.sender, link.receiver, ch);
        std::vector<double> interference;
        const std::vector<bool> probe_interferers = field.sample_active(gen);
        for (int k = 0; k < field.num_interferers(); ++k) {
          if (!probe_interferers[static_cast<std::size_t>(k)]) continue;
          if (const auto power = field.power_at(k, link.receiver, ch))
            interference.push_back(*power);
        }
        const double p =
            phy::reception_probability(capture, signal, interference);
        ++counts.cf_attempts;
        counts.cf_successes += (gen.bernoulli(p) && !probe_faulted) ? 1 : 0;
        energy.per_node_mj[static_cast<std::size_t>(link.sender)] +=
            em.tx_packet_mj;  // broadcast: no ACK
        if (!faults.node_down(link.receiver)) {
          energy.per_node_mj[static_cast<std::size_t>(link.receiver)] +=
              em.rx_packet_mj;
        }
        ++energy.data_transmissions;
        if (!interference.empty() && !probe_faulted) {
          counts.loss_external +=
              phy::reception_probability(capture, signal, {}) - p;
        }
      }
    }

    for (const auto& [key, counts] : run_counts) {
      if (counts.reuse_attempts == 0 && counts.cf_attempts == 0) continue;
      // Health reports are the sender's to deliver: a crashed or
      // suppressed sender's statistics never reach the manager.
      if (faults.reports_withheld(key.sender)) continue;
      auto& obs = result.links[key];
      if (counts.reuse_attempts > 0) {
        obs.reuse_samples.emplace_back(
            run, static_cast<double>(counts.reuse_successes) /
                     static_cast<double>(counts.reuse_attempts));
        obs.reuse_attempts += counts.reuse_attempts;
        obs.reuse_successes += counts.reuse_successes;
      }
      if (counts.cf_attempts > 0) {
        obs.cf_samples.emplace_back(
            run, static_cast<double>(counts.cf_successes) /
                     static_cast<double>(counts.cf_attempts));
        obs.cf_attempts += counts.cf_attempts;
        obs.cf_successes += counts.cf_successes;
      }
      obs.expected_loss_internal += counts.loss_internal;
      obs.expected_loss_external += counts.loss_external;
    }
  }

  finalize_result(result, flows, released, delivered, config);
  return result;
}

// ---------------------------------------------------------------------
// Fast engine (DESIGN.md §10): allocation-free in steady state, with
// every derived value drawn through the counter-based kernels of
// common/batch_rng.h. Per-link statistics accumulate in dense arrays
// over links interned once at setup, and every per-slot scratch vector
// is hoisted into a reusable pre-reserved buffer. Every signal the
// engine reads lives in one coordinate store over (directed pair,
// channel position), interned at setup: the schedule links, and the
// cross pairs of the shared cells (a sender and the receiver of another
// entry in its cell). One setup batch draws every coordinate's drift,
// and one fused batch_fade_fill call refills every signal and clean
// reception probability per run with fading on (setup fills them once
// with fading off). Each entry lists its co-cell partners with their
// cross coordinates, so the SINR sum is a gather over the partners on
// the air. Interferer duty cycles, and probe draws when no interferer
// is configured, come from derived per-run streams, so they
// bulk-generate instead of interleaving with the slot loop.
//
// The engine consumes the main `gen` stream for the slot loop's
// reception Bernoullis (and, with interferers, the probes' channel
// picks and outcomes) in the naive engine's order, so with drift,
// fading, interferers and probes off both engines draw the same
// sample path; sim_equivalence_test pins that bitwise. Everywhere
// else the outputs are statistically equivalent to the naive
// engine's, which the K-S gate in fade_equivalence_test enforces.

/// Compact per-transmission record for the fast engine's hyperperiod
/// scan. Everything the slot loop reads per entry, packed into 24
/// bytes: the progress index is precomputed (prog_offset_[flow] +
/// instance), and the narrow fields carry construction-time range
/// checks. slot_entry stays as the shared flattening type; the fast
/// engine re-packs it once at setup.
struct fast_entry {
  int prog_index;            ///< flat (flow, instance) progress slot
  flow_id flow;              ///< route_len_ / delivered index
  node_id sender;
  node_id receiver;
  int link;                  ///< dense link index
  std::int16_t link_index;   ///< hop position within the route
  std::uint8_t so_mod;       ///< (slot + offset) mod |channels|
  std::uint8_t reuse_cell;   ///< scheduled cell holds >= 2 transmissions
};

class fast_engine {
 public:
  fast_engine(const topo::topology& topo, const tsch::schedule& sched,
              const std::vector<flow::flow>& flows,
              const std::vector<channel_t>& channels,
              const sim_config& config)
      : flows_(flows),
        config_(config),
        n_(topo.num_nodes()),
        ncl_(static_cast<int>(channels.size())),
        hp_(sched.num_slots()),
        field_(topo, config.interferers, config.seed ^ 0x5eedULL),
        faults_(config.faults, topo.num_nodes()),
        faults_on_(faults_.any()) {
    auto by_slot = flatten_schedule(sched, flows, n_, ncl_);

    // Link interning: dense indices assigned in link_key order, so the
    // per-run flush below walks links exactly as the naive engine's
    // std::map<link_key, ...> iteration does.
    std::map<link_key, int> interned;
    for (const auto& p : sched.placements())
      interned.emplace(link_key{p.tx.sender, p.tx.receiver}, 0);
    link_keys_.reserve(interned.size());
    for (auto& [key, index] : interned) {
      index = static_cast<int>(link_keys_.size());
      link_keys_.push_back(key);
    }
    // Per-flow instance layout: progress for all (flow, instance)
    // slots lives in one flat array reset with a single fill per run.
    // Computed before the entry array so each entry can carry its
    // precomputed progress index.
    prog_offset_.resize(flows.size() + 1);
    flow_instances_.resize(flows.size());
    route_len_.resize(flows.size());
    int prog_total = 0;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      prog_offset_[fi] = prog_total;
      flow_instances_[fi] = flows[fi].instances_in(hp_);
      route_len_[fi] = static_cast<int>(flows[fi].route.size());
      prog_total += flow_instances_[fi];
    }
    prog_offset_[flows.size()] = prog_total;
    progress_.assign(static_cast<std::size_t>(prog_total), 0);

    // One contiguous compact entry array with per-slot ranges: the
    // per-run scan reads every entry once, so the flat sequence and
    // the halved row size (24 bytes vs ~48 for slot_entry) halve the
    // cache lines the scan streams per run. Each entry lists its
    // co-cell partners in ascending entry order, the order in which the
    // naive engine sums a receiver's interference (with distinct
    // channels, two entries of a slot share a channel exactly when they
    // share a cell), with the cross pair each partner makes: its sender
    // and this entry's receiver.
    std::vector<link_key> partner_pairs;
    std::size_t max_entries = 0;
    slot_begin_.resize(static_cast<std::size_t>(hp_) + 1);
    for (slot_t s = 0; s < hp_; ++s) {
      const auto& entries = by_slot[static_cast<std::size_t>(s)];
      max_entries = std::max(max_entries, entries.size());
      const int slot_base = static_cast<int>(entries_.size());
      slot_begin_[static_cast<std::size_t>(s)] = slot_base;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& entry = entries[i];
        WSAN_REQUIRE(entry.tx.link_index <=
                         std::numeric_limits<std::int16_t>::max(),
                     "route longer than the compact entry field");
        fast_entry fe;
        fe.prog_index =
            prog_offset_[static_cast<std::size_t>(entry.tx.flow)] +
            entry.tx.instance;
        fe.flow = entry.tx.flow;
        fe.sender = entry.tx.sender;
        fe.receiver = entry.tx.receiver;
        fe.link =
            interned.at(link_key{entry.tx.sender, entry.tx.receiver});
        fe.link_index = static_cast<std::int16_t>(entry.tx.link_index);
        fe.so_mod = static_cast<std::uint8_t>(entry.so_mod);
        fe.reuse_cell = entry.reuse_cell ? 1 : 0;
        entries_.push_back(fe);

        partner_begin_.push_back(static_cast<int>(partners_.size()));
        for (std::size_t j = 0; j < entries.size(); ++j) {
          if (j == i || entries[j].offset != entry.offset) continue;
          partners_.push_back(slot_base + static_cast<int>(j));
          partner_pairs.push_back(
              link_key{entries[j].tx.sender, entry.tx.receiver});
        }
      }
    }
    slot_begin_[static_cast<std::size_t>(hp_)] =
        static_cast<int>(entries_.size());
    partner_begin_.push_back(static_cast<int>(partners_.size()));

    // Sigmoid constants of the clean PRR and of the capture
    // transition. Both widths are positive: validate_sim_config checks
    // the capture width and run_simulation the link model's. The
    // noise-floor term of the SINR denominator is run-invariant, so it
    // is converted to milliwatts once here.
    const auto& link_model = topo.link_model();
    p0_sens_ = link_model.sensitivity_dbm;
    p0_scale_ = link_model.transition_width_db / 4.0;
    cap_thresh_ = config.capture_threshold_db;
    cap_scale_ = config.capture_transition_db / 4.0;
    noise_mw_ =
        batch_detail::poly_exp(link_model.noise_floor_dbm * k_ln10_over_10);

    // The coordinate store over (directed pair, channel position):
    // every link at every position (a probe may pick any), then the
    // cross pairs at the positions their cells reach. Tables are keyed
    // by list position rather than the 16-wide IEEE channel index: the
    // list is what the hopping loop and the probe draw index, and the
    // narrow dimension keeps the tables small.
    std::vector<link_key> pairs = link_keys_;  // links, then cross pairs
    std::vector<std::pair<std::size_t, int>> coords;  // (pair, position)
    for (std::size_t li = 0; li < link_keys_.size(); ++li)
      for (int ci = 0; ci < ncl_; ++ci) coords.push_back({li, ci});
    cross_begin_ = coords.size();

    // Cross pairs are interned in first-use order through a dense
    // (sender, receiver) table. A cell's channel position shifts by
    // (run * hp) mod |channels| from run to run, a sequence whose
    // period divides |channels|, so the first runs visit every position
    // a cell ever reaches; a cross pair gets a coordinate at each
    // position one of its cells reaches and nowhere else.
    std::vector<char> run_shift(static_cast<std::size_t>(ncl_), 0);
    for (int run = 0; run < std::min(config.runs, ncl_); ++run)
      run_shift[static_cast<std::size_t>(
          (static_cast<std::int64_t>(run) * hp_) % ncl_)] = 1;
    std::vector<int> pair_of(
        partners_.empty() ? 0 : static_cast<std::size_t>(n_) * n_, -1);
    std::vector<int> cross_coord;  // (cross pair, position) -> cross_mw_
    partner_coord_.resize(partners_.size() * static_cast<std::size_t>(ncl_));
    for (std::size_t k = 0; k < partners_.size(); ++k) {
      const link_key& key = partner_pairs[k];
      int& pair = pair_of[static_cast<std::size_t>(key.sender) *
                              static_cast<std::size_t>(n_) +
                          static_cast<std::size_t>(key.receiver)];
      if (pair < 0) {
        pair = static_cast<int>(pairs.size());
        pairs.push_back(key);
        cross_coord.resize(cross_coord.size() + static_cast<std::size_t>(ncl_),
                           -1);
      }
      const std::size_t row = (static_cast<std::size_t>(pair) -
                               link_keys_.size()) *
                              static_cast<std::size_t>(ncl_);
      const int so_mod =
          entries_[static_cast<std::size_t>(partners_[k])].so_mod;
      for (int shift = 0; shift < ncl_; ++shift) {
        if (!run_shift[static_cast<std::size_t>(shift)]) continue;
        const int ci = (so_mod + shift) % ncl_;
        int& coord = cross_coord[row + static_cast<std::size_t>(ci)];
        if (coord < 0) {
          coord = static_cast<int>(coords.size() - cross_begin_);
          coords.push_back({static_cast<std::size_t>(pair), ci});
        }
        partner_coord_[k * static_cast<std::size_t>(ncl_) +
                       static_cast<std::size_t>(ci)] = coord;
      }
    }
    coord_count_ = coords.size();

    // Bases: RSSI plus calibration drift. A pair that carries a
    // schedule link in either direction is maintained (re-measured,
    // small drift); any other pair draws its intermittence class from
    // its pair seed. Every drift normal comes from one batch over the
    // coordinates' seed chains.
    std::vector<std::uint64_t> pair_state(pairs.size());
    std::vector<double> pair_sigma(pairs.size());
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      const link_key& key = pairs[pi];
      const bool maintained =
          pi < link_keys_.size() ||
          std::binary_search(link_keys_.begin(), link_keys_.end(), key) ||
          std::binary_search(link_keys_.begin(), link_keys_.end(),
                             link_key{key.receiver, key.sender});
      pair_state[pi] = drift_pair_state(config.seed, key.sender, key.receiver);
      double u = 0.0;
      if (!maintained) {
        std::uint64_t st = pair_state[pi];
        u = batch_uniform01(splitmix64(st));
      }
      pair_sigma[pi] = drift_sigma(config, maintained, u);
    }
    dense_pk_.resize(coord_count_);
    dense_ch_.resize(coord_count_);
    dense_base_.resize(coord_count_);
    dense_sig_.resize(coord_count_);
    dense_p0_.resize(coord_count_);
    cross_mw_.resize(coord_count_ - cross_begin_);
    std::vector<std::uint64_t> drift_seeds(coord_count_);
    for (std::size_t id = 0; id < coord_count_; ++id) {
      const auto [pi, ci] = coords[id];
      const link_key& key = pairs[pi];
      const channel_t ch = channels[static_cast<std::size_t>(ci)];
      const auto lo = static_cast<std::uint64_t>(
          key.sender < key.receiver ? key.sender : key.receiver);
      const auto hi = static_cast<std::uint64_t>(
          key.sender < key.receiver ? key.receiver : key.sender);
      dense_pk_[id] = lo << 32 | hi;
      dense_ch_[id] = static_cast<std::uint64_t>(ch);
      dense_base_[id] = topo.rssi_dbm(key.sender, key.receiver, ch);
      drift_seeds[id] = drift_chan_seed(pair_state[pi], ch);
    }
    std::vector<double> drift_normals(coord_count_);
    batch_normals(drift_seeds.data(), coord_count_, drift_normals.data());
    for (std::size_t id = 0; id < coord_count_; ++id) {
      const double sigma = pair_sigma[coords[id].first];
      dense_base_[id] += sigma > 0.0 ? sigma * drift_normals[id] : 0.0;
    }
    // With fading on, the run prefix enters inside batch_fade_fill;
    // with fading off the signals are the bases for the whole
    // simulation.
    fade_on_ = config.temporal_fading_sigma_db > 0.0;
    if (!fade_on_) {
      dense_sig_ = dense_base_;
      for (std::size_t id = 0; id < coord_count_; ++id)
        dense_p0_[id] = batch_sigmoid((dense_sig_[id] - p0_sens_) / p0_scale_);
      convert_cross_mw();
    }

    // External interferers: overlap per (interferer, list position) and
    // received power in milliwatts per (interferer, node), so the hot
    // loop reads two arrays instead of calling power_at.
    const int num_intf = field_.num_interferers();
    ext_overlap_.assign(
        static_cast<std::size_t>(num_intf) * static_cast<std::size_t>(ncl_),
        0);
    ext_power_mw_.assign(static_cast<std::size_t>(num_intf) *
                             static_cast<std::size_t>(n_),
                         0.0);
    for (int k = 0; k < num_intf; ++k) {
      for (int ci = 0; ci < ncl_; ++ci)
        ext_overlap_[static_cast<std::size_t>(k) *
                         static_cast<std::size_t>(ncl_) +
                     static_cast<std::size_t>(ci)] =
            phy::wifi_overlaps(field_.interferer(k).wifi_channel,
                               channels[static_cast<std::size_t>(ci)])
                ? 1
                : 0;
      for (node_id v = 0; v < n_; ++v)
        ext_power_mw_[static_cast<std::size_t>(k) *
                          static_cast<std::size_t>(n_) +
                      static_cast<std::size_t>(v)] =
            batch_detail::poly_exp(field_.received_dbm(k, v) *
                                   k_ln10_over_10);
    }

    const std::size_t max_probes =
        link_keys_.size() *
        static_cast<std::size_t>(
            config.probes_per_run > 0 ? config.probes_per_run : 0);
    if (num_intf == 0) {
      probe_uu_.resize(2 * max_probes);
    } else {
      // One activity row per possible sample point of a run: every
      // slot of the hyperperiod plus every probe. A run consumes at
      // most that many rows (slots without active transmissions and
      // muted links skip theirs).
      const std::size_t rows = static_cast<std::size_t>(hp_) + max_probes;
      intf_u_.resize(rows * static_cast<std::size_t>(num_intf));
      intf_duty_.resize(static_cast<std::size_t>(num_intf));
      for (int k = 0; k < num_intf; ++k)
        intf_duty_[static_cast<std::size_t>(k)] =
            field_.interferer(k).duty_cycle;
    }

    // Scratch buffers, reserved once; the slot loop only clear()s them.
    active_.reserve(max_entries);
    active_chan_pos_.reserve(max_entries);
    on_air_.assign(entries_.size(), 0);
    success_.reserve(max_entries);
    powers_mw_.reserve(max_entries + static_cast<std::size_t>(num_intf));
    counts_.assign(link_keys_.size(), link_run_counts{});
    obs_cache_.assign(link_keys_.size(), nullptr);
  }

  sim_result run() {
    rng gen(config_.seed);
    const int num_intf = field_.num_interferers();

    std::vector<long long> delivered(flows_.size(), 0);
    std::vector<long long> released(flows_.size(), 0);

    sim_result result;
    result.energy.per_node_mj.assign(static_cast<std::size_t>(n_), 0.0);
    const auto& em = config_.energy;
    auto& energy = result.energy;

    for (int run = 0; run < config_.runs; ++run) {
      faults_.begin_run(run);
      std::fill(progress_.begin(), progress_.end(), 0);
      for (std::size_t fi = 0; fi < flows_.size(); ++fi)
        released[fi] += flow_instances_[fi];
      std::fill(counts_.begin(), counts_.end(), link_run_counts{});
      // (run * hp + s + offset) mod |channels|, with the run component
      // folded out of the per-entry work.
      const int run_base = static_cast<int>(
          (static_cast<std::int64_t>(run) * hp_) % ncl_);
      if (fade_on_ || num_intf > 0) {
        OBS_SPAN("sim.fade_fill");
        if (fade_on_) refill_store(run);
        if (num_intf > 0) refresh_interferer_rows(run);
      }

      {
        OBS_SPAN("sim.slot_loop");
        for (slot_t s = 0; s < hp_; ++s) {
          const int eb = slot_begin_[static_cast<std::size_t>(s)];
          const int ee = slot_begin_[static_cast<std::size_t>(s) + 1];
          if (eb == ee) continue;

          active_.clear();
          active_chan_pos_.clear();
          for (int e = eb; e < ee; ++e) {
            const auto& entry = entries_[static_cast<std::size_t>(e)];
            const int prog =
                progress_[static_cast<std::size_t>(entry.prog_index)];
            const bool sender_crashed =
                faults_on_ && faults_.node_down(entry.sender);
            if (prog != entry.link_index || sender_crashed) {
              on_air_[static_cast<std::size_t>(e)] = 0;
              if (!faults_on_ || !faults_.node_down(entry.receiver)) {
                energy.per_node_mj[static_cast<std::size_t>(
                    entry.receiver)] += em.idle_listen_mj;
                ++energy.idle_listens;
              }
              continue;  // done, dead, past, or crashed
            }
            on_air_[static_cast<std::size_t>(e)] = 1;
            active_.push_back(e);
            int ci = run_base + entry.so_mod;
            if (ci >= ncl_) ci -= ncl_;
            active_chan_pos_.push_back(ci);
          }
          if (active_.empty()) continue;
          obs_active_transmissions_ += active_.size();
          // Every slot with a transmission on the air is one sample
          // point of the interferer duty-cycle process (no row, and no
          // read of one, without interferers).
          const double* intf_row =
              num_intf > 0 ? next_interferer_row() : nullptr;

          success_.assign(active_.size(), 0);
          for (std::size_t i = 0; i < active_.size(); ++i) {
            const int e = active_[i];
            const auto& tx = entries_[static_cast<std::size_t>(e)];
            const int ci = active_chan_pos_[i];
            const std::size_t id =
                static_cast<std::size_t>(tx.link) *
                    static_cast<std::size_t>(ncl_) +
                static_cast<std::size_t>(ci);
            // One milliwatt scratch buffer, internal powers first then
            // external: sub-ranges feed the counterfactual reception
            // probabilities.
            powers_mw_.clear();
            if (tx.reuse_cell) {
              // The partners on the air, in entry order, all at this
              // entry's channel position.
              const auto ue = static_cast<std::size_t>(e);
              const auto pe = static_cast<std::size_t>(partner_begin_[ue + 1]);
              for (auto k = static_cast<std::size_t>(partner_begin_[ue]);
                   k < pe; ++k) {
                if (!on_air_[static_cast<std::size_t>(partners_[k])])
                  continue;
                powers_mw_.push_back(cross_mw_[static_cast<std::size_t>(
                    partner_coord_[k * static_cast<std::size_t>(ncl_) +
                                   static_cast<std::size_t>(ci)])]);
              }
            }
            const std::size_t internal_count = powers_mw_.size();
            obs_internal_pairs_ += internal_count;
            push_external_mw(intf_row, ci, tx.receiver);
            const std::size_t external_count =
                powers_mw_.size() - internal_count;
            const bool faulted_rx =
                faults_on_ &&
                (faults_.node_down(tx.receiver) ||
                 faults_.link_down(tx.sender, tx.receiver) ||
                 faults_.slot_jammed(s));
            // Interference-free receptions — the bulk of a
            // contention-free schedule — read the clean PRR directly.
            double p = dense_p0_[id];
            if (!powers_mw_.empty()) {
              p = rx_prob(id, 0, powers_mw_.size());
              // Ground-truth attribution: each counterfactual drops one
              // interference source (the other sub-span alone, or the
              // clean PRR when the other source is silent). Fault
              // losses are neither internal nor external interference.
              auto& counts = counts_[static_cast<std::size_t>(tx.link)];
              if (internal_count > 0 && !faulted_rx) {
                const double without_internal =
                    external_count > 0
                        ? rx_prob(id, internal_count, external_count)
                        : dense_p0_[id];
                counts.loss_internal += without_internal - p;
              }
              if (external_count > 0 && !faulted_rx) {
                const double without_external =
                    internal_count > 0
                        ? rx_prob(id, 0, internal_count)
                        : dense_p0_[id];
                counts.loss_external += without_external - p;
              }
            }
            success_[i] = (gen.bernoulli(p) && !faulted_rx) ? 1 : 0;
          }

          for (std::size_t i = 0; i < active_.size(); ++i) {
            const auto& tx = entries_[static_cast<std::size_t>(active_[i])];
            const auto fi = static_cast<std::size_t>(tx.flow);
            auto& prog =
                progress_[static_cast<std::size_t>(tx.prog_index)];

            auto& counts =
                counts_[static_cast<std::size_t>(tx.link)];
            if (tx.reuse_cell) {
              ++counts.reuse_attempts;
              counts.reuse_successes += success_[i] ? 1 : 0;
            } else {
              ++counts.cf_attempts;
              counts.cf_successes += success_[i] ? 1 : 0;
            }

            energy.per_node_mj[static_cast<std::size_t>(tx.sender)] +=
                em.tx_packet_mj + em.rx_ack_mj;
            if (!faults_on_ || !faults_.node_down(tx.receiver)) {
              energy.per_node_mj[static_cast<std::size_t>(tx.receiver)] +=
                  em.rx_packet_mj + (success_[i] ? em.tx_ack_mj : 0.0);
            }
            ++energy.data_transmissions;

            if (success_[i]) {
              ++prog;
              if (prog == route_len_[fi]) ++delivered[fi];
            }
          }
        }
      }

      if (config_.probes_per_run > 0) {
        OBS_SPAN("sim.probe_loop");
        if (num_intf == 0)
          run_clean_probes(run, energy);
        else
          run_interfered_probes(gen, energy);
      }

      OBS_SPAN("sim.finalize");
      flush_run(run, result);
    }

    OBS_SPAN("sim.finalize");
    finalize_result(result, flows_, released, delivered, config_);
    if (wsan::obs::enabled()) {
      wsan::obs::add_counter("sim.active_transmissions",
                             obs_active_transmissions_);
      wsan::obs::add_counter("sim.internal_interference_pairs",
                             obs_internal_pairs_);
      wsan::obs::add_counter("sim.fade_kernels", obs_fade_kernels_);
    }
    return result;
  }

 private:
  /// Reception probability of link coordinate `id` under interference
  /// over the sub-range [begin, begin + count) of the collected
  /// milliwatt powers: the clean PRR times the capture sigmoid of the
  /// SINR margin, as in phy::reception_probability, with every libm
  /// call replaced by the batch kernels (poly_log for mw_to_dbm,
  /// batch_sigmoid for the capture transition). Interferer powers
  /// arrive pre-converted (ext_power_mw_ at setup, cross_mw_ per run).
  double rx_prob(std::size_t id, std::size_t begin,
                 std::size_t count) const {
    double denom_mw = noise_mw_;
    const double* mw = powers_mw_.data() + begin;
    for (std::size_t k = 0; k < count; ++k) denom_mw += mw[k];
    const double sinr =
        dense_sig_[id] - batch_detail::poly_log(denom_mw) * k_10_over_ln10;
    return dense_p0_[id] *
           batch_sigmoid((sinr - cap_thresh_) / cap_scale_);
  }

  /// Per-run refill of the coordinate store (fading on): one fused
  /// vectorized pass computes the fade chain, sigma scale, base add and
  /// clean-PRR sigmoid for every coordinate, links and cross pairs
  /// alike.
  void refill_store(int run) {
    const fade_run_prefix prefix = fade_prefix(config_.seed, run);
    batch_fade_fill(prefix.state, prefix.z, dense_pk_.data(),
                    dense_ch_.data(), dense_base_.data(), coord_count_,
                    config_.temporal_fading_sigma_db, p0_sens_, p0_scale_,
                    dense_sig_.data(), dense_p0_.data());
    obs_fade_kernels_ += coord_count_;
    convert_cross_mw();
  }

  /// The cross-pair signals in milliwatts: the interference powers the
  /// slot loop gathers.
  void convert_cross_mw() {
    const double* sig = dense_sig_.data() + cross_begin_;
    for (std::size_t k = 0; k < cross_mw_.size(); ++k)
      cross_mw_[k] = batch_detail::poly_exp(sig[k] * k_ln10_over_10);
  }

  /// Interferer activity: the uniforms of the duty-cycle Bernoullis
  /// for a whole run, generated in one vectorized pass from a derived
  /// per-run stream — derive_seed(seed, interferer stream, run). Row r
  /// holds the uniforms of the r-th sample point of the run (slot loop
  /// first, then probes), and interferer k is active there iff
  /// row[k] < its duty cycle, so the process keeps the naive engine's
  /// structure: an independent Bernoulli(duty_cycle) per interferer
  /// per sample point, deterministic per (config, run).
  void refresh_interferer_rows(int run) {
    intf_cursor_ = 0;
    batch_uniform01s(derive_seed(config_.seed, k_interferer_stream,
                                 static_cast<std::uint64_t>(run)),
                     intf_u_.size(), intf_u_.data());
  }

  /// Appends to powers_mw_ the milliwatt power, at `receiver`, of
  /// every interferer active in `row` (its uniform below its duty
  /// cycle) whose WiFi channel overlaps list position `ci`.
  void push_external_mw(const double* row, int ci, node_id receiver) {
    const std::size_t num_intf = intf_duty_.size();
    for (std::size_t k = 0; k < num_intf; ++k) {
      if (!(row[k] < intf_duty_[k])) continue;
      if (!ext_overlap_[k * static_cast<std::size_t>(ncl_) +
                        static_cast<std::size_t>(ci)])
        continue;
      powers_mw_.push_back(ext_power_mw_[k * static_cast<std::size_t>(n_) +
                                         static_cast<std::size_t>(receiver)]);
    }
  }

  /// The next pre-generated activity row, one uniform per interferer.
  const double* next_interferer_row() {
    const double* row = intf_u_.data() + intf_cursor_ * intf_duty_.size();
    ++intf_cursor_;
    return row;
  }

  /// Probes without external interferers: a probe's outcome is its
  /// clean reception probability, so channel picks and Bernoulli
  /// thresholds come from a derived per-run stream generated in one
  /// vectorized uniform pass (same pattern as the interferer rows).
  /// The first |links|*probes values are the channel uniforms, the
  /// second half the outcome thresholds, indexed by (link, probe) so
  /// muted links skip their entries without shifting anyone else's.
  /// Channel picks map through floor(u * ncl), uniform over the list.
  void run_clean_probes(int run, energy_report& energy) {
    const auto& em = config_.energy;
    const std::size_t np_total =
        link_keys_.size() * static_cast<std::size_t>(config_.probes_per_run);
    batch_uniform01s(derive_seed(config_.seed, k_probe_stream,
                                 static_cast<std::uint64_t>(run)),
                     2 * np_total, probe_uu_.data());
    const double* uch = probe_uu_.data();
    const double* uth = probe_uu_.data() + np_total;
    const double dncl = static_cast<double>(ncl_);
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const auto& link = link_keys_[li];
      if (faults_on_ && faults_.node_down(link.sender))
        continue;  // dead nodes are mute
      const bool probe_faulted =
          faults_on_ && (faults_.node_down(link.receiver) ||
                         faults_.link_down(link.sender, link.receiver));
      const bool rx_alive = !faults_on_ || !faults_.node_down(link.receiver);
      auto& counts = counts_[li];
      const std::size_t base =
          li * static_cast<std::size_t>(config_.probes_per_run);
      for (int probe = 0; probe < config_.probes_per_run; ++probe) {
        int ci = static_cast<int>(
            uch[base + static_cast<std::size_t>(probe)] * dncl);
        // u < 1 keeps u*ncl < ncl except for a possible round-to-even
        // at the very top of the range; clamp the (never-taken in
        // practice) overflow instead of trusting the rounding mode.
        if (ci >= ncl_) ci = ncl_ - 1;
        const double p = dense_p0_[li * static_cast<std::size_t>(ncl_) +
                                   static_cast<std::size_t>(ci)];
        // Same validation gen.bernoulli(p) performs before comparing.
        WSAN_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0, 1]");
        ++counts.cf_attempts;
        counts.cf_successes +=
            (uth[base + static_cast<std::size_t>(probe)] < p &&
             !probe_faulted)
                ? 1
                : 0;
        energy.per_node_mj[static_cast<std::size_t>(link.sender)] +=
            em.tx_packet_mj;  // broadcast: no ACK
        if (rx_alive) {
          energy.per_node_mj[static_cast<std::size_t>(link.receiver)] +=
              em.rx_packet_mj;
        }
        ++energy.data_transmissions;
      }
    }
  }

  /// Probes under external interference: channel picks and outcomes
  /// are main-stream draws in the naive engine's order, and each probe
  /// is one sample point of the interferer activity rows.
  void run_interfered_probes(rng& gen, energy_report& energy) {
    const auto& em = config_.energy;
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const auto& link = link_keys_[li];
      if (faults_on_ && faults_.node_down(link.sender))
        continue;  // dead nodes are mute
      const bool probe_faulted =
          faults_on_ && (faults_.node_down(link.receiver) ||
                         faults_.link_down(link.sender, link.receiver));
      const bool rx_alive = !faults_on_ || !faults_.node_down(link.receiver);
      auto& counts = counts_[li];
      for (int probe = 0; probe < config_.probes_per_run; ++probe) {
        const int ci = static_cast<int>(gen.uniform_int(0, ncl_ - 1));
        const std::size_t id = li * static_cast<std::size_t>(ncl_) +
                               static_cast<std::size_t>(ci);
        powers_mw_.clear();
        push_external_mw(next_interferer_row(), ci, link.receiver);
        const double p = powers_mw_.empty()
                             ? dense_p0_[id]
                             : rx_prob(id, 0, powers_mw_.size());
        ++counts.cf_attempts;
        counts.cf_successes += (gen.bernoulli(p) && !probe_faulted) ? 1 : 0;
        energy.per_node_mj[static_cast<std::size_t>(link.sender)] +=
            em.tx_packet_mj;  // broadcast: no ACK
        if (rx_alive) {
          energy.per_node_mj[static_cast<std::size_t>(link.receiver)] +=
              em.rx_packet_mj;
        }
        ++energy.data_transmissions;
        if (!powers_mw_.empty() && !probe_faulted)
          counts.loss_external += dense_p0_[id] - p;
      }
    }
  }

  /// Flushes this run's accumulators into the result, in link_key
  /// order (== the naive engine's std::map iteration order).
  void flush_run(int run, sim_result& result) {
    for (std::size_t li = 0; li < link_keys_.size(); ++li) {
      const auto& counts = counts_[li];
      if (counts.reuse_attempts == 0 && counts.cf_attempts == 0) continue;
      // Health reports are the sender's to deliver: a crashed or
      // suppressed sender's statistics never reach the manager.
      if (faults_.reports_withheld(link_keys_[li].sender)) continue;
      link_observations* obs = obs_cache_[li];
      if (obs == nullptr) {
        obs = &result.links[link_keys_[li]];
        obs_cache_[li] = obs;
      }
      if (counts.reuse_attempts > 0) {
        obs->reuse_samples.emplace_back(
            run, static_cast<double>(counts.reuse_successes) /
                     static_cast<double>(counts.reuse_attempts));
        obs->reuse_attempts += counts.reuse_attempts;
        obs->reuse_successes += counts.reuse_successes;
      }
      if (counts.cf_attempts > 0) {
        obs->cf_samples.emplace_back(
            run, static_cast<double>(counts.cf_successes) /
                     static_cast<double>(counts.cf_attempts));
        obs->cf_attempts += counts.cf_attempts;
        obs->cf_successes += counts.cf_successes;
      }
      obs->expected_loss_internal += counts.loss_internal;
      obs->expected_loss_external += counts.loss_external;
    }
  }

  const std::vector<flow::flow>& flows_;
  const sim_config& config_;
  const int n_;
  const int ncl_;  ///< channel list length (== schedule offsets)
  const slot_t hp_;
  interference_field field_;
  fault_state faults_;
  const bool faults_on_;  ///< plan non-empty: gates the fault queries

  std::vector<fast_entry> entries_;  ///< all transmissions, slot-major
  std::vector<int> slot_begin_;  ///< slot -> [begin, end) into entries_
  std::vector<int> partner_begin_;  ///< entry -> [begin, end) of partners_
  std::vector<int> partners_;  ///< co-cell partner entries, ascending
  std::vector<int> partner_coord_;  ///< (partner, position) -> cross_mw_
  std::vector<link_key> link_keys_;  ///< dense link index -> key, sorted
  std::vector<int> prog_offset_;     ///< flow -> progress_ base index
  std::vector<int> flow_instances_;  ///< flow -> instances per hyperperiod
  std::vector<int> route_len_;       ///< flow -> route length
  std::vector<int> progress_;  ///< flat (flow, instance) hop progress

  bool fade_on_ = false;

  // Sigmoid and SINR constants.
  double p0_sens_ = 0.0;     ///< link sensitivity dBm
  double p0_scale_ = 1.0;    ///< link transition width / 4
  double cap_thresh_ = 0.0;  ///< capture threshold dB
  double cap_scale_ = 1.0;   ///< capture transition width / 4
  double noise_mw_ = 0.0;    ///< poly_exp image of the noise floor, mW

  // The coordinate store, (pair, position): links below cross_begin_,
  // the reachable cross coordinates from it.
  std::size_t coord_count_ = 0;
  std::size_t cross_begin_ = 0;  ///< |links| * |channels|
  std::vector<std::uint64_t> dense_pk_;  ///< pair key per coordinate
  std::vector<std::uint64_t> dense_ch_;  ///< channel per coordinate
  std::vector<double> dense_base_;  ///< rssi + drift per coordinate
  std::vector<double> dense_sig_;   ///< this run's signals
  std::vector<double> dense_p0_;    ///< this run's clean PRRs
  std::vector<double> cross_mw_;    ///< this run's cross signals, mW

  std::vector<char> ext_overlap_;     ///< (interferer, list position)
  std::vector<double> ext_power_mw_;  ///< (interferer, node) -> mW
  // Derived per-run streams: probe draws (no interferers) or the
  // interferer activity rows, sized at setup.
  std::vector<double> probe_uu_;
  std::vector<double> intf_u_;     ///< (sample row, interferer) uniform
  std::vector<double> intf_duty_;  ///< interferer -> duty cycle
  std::size_t intf_cursor_ = 0;    ///< next unread activity row

  // Reusable per-slot scratch (pre-reserved, cleared in place).
  std::vector<int> active_;  ///< entries on the air this slot
  std::vector<int> active_chan_pos_;  ///< active entry -> list position
  std::vector<char> on_air_;  ///< entry -> on the air in its slot
  std::vector<char> success_;
  std::vector<double> powers_mw_;  ///< interference powers, mW

  // Dense per-link accumulators and result-map pointer cache.
  std::vector<link_run_counts> counts_;
  std::vector<link_observations*> obs_cache_;

  std::uint64_t obs_active_transmissions_ = 0;
  std::uint64_t obs_internal_pairs_ = 0;
  std::uint64_t obs_fade_kernels_ = 0;
};

}  // namespace

/// Temporal fading: deterministic per (unordered pair, channel, run).
/// Fast multipath variation is frequency-selective, which is exactly
/// why TSCH hops channels: a retry on a different channel sees an
/// independent fade, so engineered links with retries ride through it,
/// while a single shared cell pinned to a faded channel does not.
double compute_fade_db(const sim_config& config, int run, node_id a,
                       node_id b, channel_t ch) {
  if (config.temporal_fading_sigma_db <= 0.0) return 0.0;
  rng pair_gen(fade_seed(fade_prefix(config.seed, run), a, b, ch));
  return pair_gen.normal(0.0, config.temporal_fading_sigma_db);
}

/// Calibration drift: static per (unordered pair, channel) offset
/// between the measured topology (which produced the schedule's graphs)
/// and the RF world the schedule actually runs in. `maintained` is
/// whether the pair carries scheduled traffic (re-measured every
/// health-report epoch).
double compute_drift_db(const sim_config& config, bool maintained,
                        node_id a, node_id b, channel_t ch) {
  const std::uint64_t pair_state = drift_pair_state(config.seed, a, b);
  double u = 0.0;
  if (!maintained) {
    std::uint64_t s = pair_state;
    rng pair_gen(splitmix64(s));
    u = pair_gen.uniform01();
  }
  const double sigma = drift_sigma(config, maintained, u);
  if (sigma <= 0.0) return 0.0;
  rng chan_gen(drift_chan_seed(pair_state, ch));
  return chan_gen.normal(0.0, sigma);
}

void validate_sim_config(const sim_config& config) {
  WSAN_REQUIRE(config.runs >= 1, "need at least one run");
  WSAN_REQUIRE(config.probes_per_run >= 0,
               "probe count must be non-negative");
  const auto valid_sigma = [](double sigma) {
    return std::isfinite(sigma) && sigma >= 0.0;
  };
  WSAN_REQUIRE(valid_sigma(config.calibration_drift_sigma_db),
               "calibration drift sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.maintained_drift_sigma_db),
               "maintained drift sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.intermittent_sigma_db),
               "intermittent sigma must be finite and non-negative");
  WSAN_REQUIRE(valid_sigma(config.temporal_fading_sigma_db),
               "temporal fading sigma must be finite and non-negative");
  WSAN_REQUIRE(std::isfinite(config.intermittent_fraction) &&
                   config.intermittent_fraction >= 0.0 &&
                   config.intermittent_fraction <= 1.0,
               "intermittent fraction must be in [0, 1]");
  WSAN_REQUIRE(std::isfinite(config.capture_threshold_db),
               "capture threshold must be finite");
  WSAN_REQUIRE(std::isfinite(config.capture_transition_db) &&
                   config.capture_transition_db > 0.0,
               "capture transition width must be finite and positive");
  validate_fault_plan(config.faults);
}

sim_result run_simulation(const topo::topology& topo,
                          const tsch::schedule& sched,
                          const std::vector<flow::flow>& flows,
                          const std::vector<channel_t>& channels,
                          const sim_config& config) {
  OBS_SPAN("sim.run_simulation");
  WSAN_REQUIRE(!flows.empty(), "flow set must be non-empty");
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  WSAN_REQUIRE(static_cast<int>(channels.size()) == sched.num_offsets(),
               "channel list size must equal the schedule's offset count");
  // Two offsets of one slot on the same physical channel would
  // interfere across cells.
  WSAN_REQUIRE(std::set<channel_t>(channels.begin(), channels.end()).size() ==
                   channels.size(),
               "channel list must not repeat a channel");
  validate_sim_config(config);
  WSAN_REQUIRE(topo.link_model().transition_width_db > 0.0,
               "link-model transition width must be positive");

  if (!config.use_fast_path)
    return run_simulation_naive(topo, sched, flows, channels, config);
  auto engine = [&] {
    OBS_SPAN("sim.setup");
    return fast_engine(topo, sched, flows, channels, config);
  }();
  return engine.run();
}

}  // namespace wsan::sim
