// Simulator throughput: the fast engine vs the naive reference engine
// on the Figure 8 reliability workload (RC schedule, 100 schedule
// executions): Indriya-80 (5 channels) and WUSTL-60 (4 channels) with
// contention-free schedules, and WUSTL-60 with a flow set NR cannot
// schedule, so RC shares cells, plus one WiFi interferer per floor.
// Reports fast/naive wall time, the speedup, slots/s and runs/s of the
// fast engine, and its network PDR (the science key a committed
// baseline pins).
//
// Usage: --flows N (default 50), --runs N (default 100), --trials N
// (timing repetitions, default 3), plus the harness flags
// --jobs/--seed/--json/--replay (exp/options.h). A replay point is one
// workload: 0 = indriya-80, 1 = wustl-60, 2 = wustl-60-reuse.
#include "experiments.h"

int main(int argc, char** argv) {
  return wsan::bench::run_figure_main("simthroughput", argc, argv);
}
