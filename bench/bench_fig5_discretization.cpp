// Figure 5 reproduction: sequences processed per second vs processor count
// for the three accumulation layouts.
//
// The paper plots NORM (no discretization), CHARDISC, and CENTDISC in
// read-partition mode: "Speeds are nearly the same across all
// optimizations, with centroid discretization performing slightly worse."
//
// Runs execute on mpsim with per-rank thread-CPU compute time; rates come
// from the alpha-beta cost model as in Figure 4.  Expected shape: the three curves
// nearly coincide and scale close to linearly; CENTDISC is slightly lowest
// (its adds do a 256-way nearest-centroid search).
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "gnumap/core/dist_modes.hpp"
#include "gnumap/mpsim/cost_model.hpp"
#include "gnumap/obs/obs_cli.hpp"

using namespace gnumap;
using namespace gnumap::bench;

int main(int argc, char** argv) {
  gnumap::obs::strip_cli_flags(argc, argv);
  WorkloadOptions options;
  options.genome_length = 400'000;
  options.coverage = 6.0;
  options.repeat_fraction = 0.01;  // see the Figure 4 bench
  if (argc > 1) options.genome_length = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Figure 5: processing rate per memory optimization ===\n");
  const Workload w = make_workload(options);
  PipelineConfig base_config = default_pipeline_config();
  base_config.seeder.max_candidates = 16;
  const HashIndex shared_index(w.reference, base_config.index);
  std::printf("genome %.2f Mbp | %zu reads | read-partition mode\n\n",
              static_cast<double>(options.genome_length) / 1e6,
              w.reads.size());

  const CostModelParams cost_params;
  const int node_counts[] = {1, 2, 4, 8, 16};

  // Warm caches/pages so the 1-node baselines are not measured cold.
  {
    DistOptions warmup;
    warmup.ranks = 1;
    run_distributed(w.reference, w.reads, base_config, warmup, &shared_index);
  }
  const AccumKind kinds[] = {AccumKind::kNorm, AccumKind::kCharDisc,
                             AccumKind::kCentDisc};

  print_rule();
  std::printf("%6s %18s %18s %18s %10s\n", "nodes", "NORM (seq/s)",
              "CHARDISC (seq/s)", "CENTDISC (seq/s)", "perfect");
  print_rule();

  double base_rate = 0.0;
  for (const int nodes : node_counts) {
    double rates[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      PipelineConfig config = base_config;
      config.accum_kind = kinds[i];
      DistOptions dist_options;
      dist_options.ranks = nodes;
      dist_options.mode = DistMode::kReadPartition;
      const auto result = run_distributed(w.reference, w.reads, config,
                                          dist_options, &shared_index);
      rates[i] = static_cast<double>(w.reads.size()) /
                 simulated_makespan(result.costs, cost_params);
    }
    if (nodes == 1) base_rate = rates[0];
    std::printf("%6d %18.0f %18.0f %18.0f %10.0f\n", nodes, rates[0],
                rates[1], rates[2], base_rate * nodes);
  }
  print_rule();
  std::printf("paper shape: all three nearly identical and close to linear; "
              "CENTDISC slightly worse on some points.\n");
  return 0;
}
