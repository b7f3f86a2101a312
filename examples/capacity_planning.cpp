// Capacity planning: "how many flows fit on this network?"
//
// Three admission methods answer that question with very different
// costs and guarantees:
//
//   1. the analytical response-time bound — instant, a hard guarantee,
//      pessimistic (core/analysis.h);
//   2. actually running the NR scheduler — the standard's behaviour;
//   3. running RC — what conservative channel reuse buys on top.
//
// This example binary-searches the maximum admissible flow count for
// each method on the same network, quantifying the capacity ladder
// an operator climbs by moving from analysis to scheduling to reuse.
//
// Run:  ./capacity_planning [--channels 4] [--seed 7] [--trials 5]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/analysis.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"

namespace {

using namespace wsan;

enum class admission { analysis, nr, rc };

const char* name_of(admission method) {
  switch (method) {
    case admission::analysis:
      return "analytical bound";
    case admission::nr:
      return "NR scheduler";
    case admission::rc:
      return "RC scheduler";
  }
  return "?";
}

/// True iff a majority of `trials` random flow sets of this size admit.
bool admits(admission method, int flows, int trials, int channels,
            const graph::graph& comm, const graph::hop_matrix& hops,
            std::uint64_t seed) {
  int ok = 0;
  for (int t = 0; t < trials; ++t) {
    // Trial t of this flow count draws its own counter-derived stream.
    rng trial_gen(derive_seed(seed, static_cast<std::uint64_t>(flows),
                              static_cast<std::uint64_t>(t)));
    flow::flow_set_params params;
    params.num_flows = flows;
    params.period_min_exp = 0;
    params.period_max_exp = 2;
    flow::flow_set set;
    try {
      set = flow::generate_flow_set(comm, params, trial_gen);
    } catch (const std::runtime_error&) {
      continue;
    }
    bool accepted = false;
    switch (method) {
      case admission::analysis:
        accepted =
            core::analyze_response_times(set.flows, channels).schedulable;
        break;
      case admission::nr:
        accepted = core::schedule_flows(
                       set.flows, hops,
                       core::make_config(core::algorithm::nr, channels))
                       .schedulable;
        break;
      case admission::rc:
        accepted = core::schedule_flows(
                       set.flows, hops,
                       core::make_config(core::algorithm::rc, channels))
                       .schedulable;
        break;
    }
    ok += accepted ? 1 : 0;
  }
  return 2 * ok > trials;
}

}  // namespace

int run(int argc, char** argv) {
  const cli_args args(argc, argv);
  const int channels = args.get_int("channels", 4);
  const auto seed = args.get_uint64("seed", 7);
  const int trials = args.get_int("trials", 5);

  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(channels));

  std::cout << "Binary-searching the capacity of " << view.topology.name()
            << " on " << channels << " channels (peer-to-peer, "
            << "P=[1s,4s], majority of " << trials
            << " random sets must admit)\n\n";

  table t({"admission method", "max flows", "relative"});
  int baseline = 0;
  for (const auto method :
       {admission::analysis, admission::nr, admission::rc}) {
    int lo = 1;
    int hi = 256;
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (admits(method, mid, trials, channels, view.comm, view.reuse_hops,
                 seed)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    if (method == admission::analysis) baseline = lo;
    t.add_row({name_of(method), cell(lo),
               baseline > 0
                   ? cell(static_cast<double>(lo) / baseline, 1) + "x"
                   : "-"});
  }
  t.print(std::cout);
  std::cout << "\nThe analytical bound admits conservatively but "
               "instantly and with a hard guarantee; the NR scheduler "
               "finds the standard's real capacity; conservative reuse "
               "extends it further without giving up worst-case "
               "reliability (see wsanctl bench --figure fig8).\n";
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
