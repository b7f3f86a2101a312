// Scheduler configuration shared by NR, RA, and RC.
#pragma once

#include <set>
#include <string>
#include <utility>

#include "common/ids.h"

namespace wsan::core {

/// The three scheduling policies of the evaluation (Section VII):
///   nr — Deadline Monotonic without channel reuse (WirelessHART
///        standard behaviour; one transmission per channel per slot),
///   ra — aggressive reuse: earliest slot, reuse whenever the hop-based
///        model allows it at rho_t (TASA-like),
///   rc — Reuse Conservatively (Algorithm 1): reuse only when laxity
///        would go negative, starting from the reuse-graph diameter.
enum class algorithm { nr, ra, rc };

std::string to_string(algorithm algo);

/// The algorithm named `name`: "nr", "ra" or "rc", in either case (so
/// to_string's names parse back). Throws std::invalid_argument on any
/// other name.
algorithm parse_algorithm(const std::string& name);

/// How findSlot picks among channel offsets that satisfy the channel
/// reuse constraints in the chosen slot.
enum class channel_policy {
  /// Fewest already-scheduled transmissions (the paper's rule,
  /// Section V-C: reduce per-channel contention).
  min_load,
  /// Lowest offset index — a naive baseline for the ablation study.
  first_fit,
  /// Most already-scheduled transmissions — deliberately maximizes
  /// stacking to show why min_load matters.
  max_reuse,
};

std::string to_string(channel_policy policy);

/// A set of directed links (sender, receiver).
using link_set = std::set<std::pair<node_id, node_id>>;

struct scheduler_config {
  algorithm algo = algorithm::rc;
  /// |M|: number of channels in use = number of channel offsets.
  int num_channels = 4;
  /// Minimum channel-reuse hop distance rho_t (the paper compares at 2).
  int rho_t = 2;
  channel_policy policy = channel_policy::min_load;
  /// Extra dedicated slots reserved per link for retransmissions
  /// (source routing, Section VII).
  int retries_per_link = 1;
  /// Management-slot reservation (Section VI: the manager "must reserve
  /// enough slots for each node to broadcast neighbor-discovery packets
  /// in all channels used"). Every k-th slot (slot % k == 0) is reserved
  /// for advertisement/neighbor-discovery traffic and is unavailable to
  /// data transmissions. 0 disables the reservation (the figure
  /// reproductions run without it, matching the paper's data-plane
  /// framing; the ablation bench quantifies its cost).
  int management_slot_period = 0;
  /// When true (the default), the scheduler's transmission-conflict
  /// checks, channel constraint and laxity accounting run on the
  /// schedule's incremental occupancy index (per-node busy-slot
  /// bitsets, full-slot bits and cell node masks) and the hop
  /// matrix's balls (find_slot's indexed search, instance_laxity). When
  /// false, they fall back to the naive scans over the schedule's cells
  /// (find_slot's naive search, calculate_laxity) — the reference oracle
  /// the equivalence tests compare against. Both paths must produce
  /// placement-identical schedules.
  bool use_occupancy_index = true;
  /// Directed links whose transmissions must stay contention-free: they
  /// get exclusive cells, and no other transmission may join a cell they
  /// occupy. This is the remedy Section VI motivates — once the
  /// detection policy identifies links degraded by channel reuse, the
  /// manager "reassigns them to different channels or time slots".
  link_set isolated_links;
};

/// True iff the directed link sender->receiver is in the isolation set.
inline bool is_isolated(const link_set& isolated, node_id sender,
                        node_id receiver) {
  return isolated.count({sender, receiver}) > 0;
}

/// Canonical configuration for each of the paper's three schedulers.
/// The min-load channel choice is part of RC's design (Section V-C:
/// "chooses a channel with the fewest number of scheduled
/// transmissions"); the aggressive baseline RA, like TASA, takes the
/// first offset the hop-based model allows and therefore stacks
/// transmissions. NR never shares a cell, so its policy is moot.
scheduler_config make_config(algorithm algo, int num_channels,
                             int rho_t = 2);

}  // namespace wsan::core
