// Ablation D: cost-model sensitivity for the Figure 4 curves.
//
// Figure 4's shape depends on the assumed network constants.  This ablation
// reruns both distributed modes once (collecting real communication volumes
// and measured compute), then replays the cost model across a grid of
// latency (alpha) and bandwidth (beta) values.  Expected: the qualitative
// ordering (shared-genome above spread-memory) is robust across two orders
// of magnitude in either constant; only the crossover-free gap narrows on
// an infinitely fast network.
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
  options.genome_length = 300'000;
  options.coverage = 4.0;
  if (argc > 1) options.genome_length = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Ablation: cost-model sensitivity (8 nodes) ===\n");
  const Workload w = make_workload(options);
  const PipelineConfig config = default_pipeline_config();
  const HashIndex shared_index(w.reference, config.index);

  DistOptions dist_options;
  dist_options.ranks = 8;

  dist_options.mode = DistMode::kReadPartition;
  const auto shared =
      run_distributed(w.reference, w.reads, config, dist_options,
                      &shared_index);
  dist_options.mode = DistMode::kGenomePartition;
  const auto spread = run_distributed(w.reference, w.reads, config,
                                      dist_options);

  const double reads = static_cast<double>(w.reads.size());
  std::printf("genome %.2f Mbp | %zu reads | comm volumes measured once, "
              "model replayed\n\n",
              static_cast<double>(options.genome_length) / 1e6,
              w.reads.size());

  print_rule();
  std::printf("%12s %14s %18s %18s %8s\n", "alpha", "beta", "shared (seq/s)",
              "spread (seq/s)", "ratio");
  print_rule();
  for (const double alpha : {5e-6, 50e-6, 500e-6}) {
    for (const double beta : {12.5e6, 125e6, 1.25e9}) {
      CostModelParams params;
      params.alpha = alpha;
      params.beta = beta;
      const double shared_rate =
          reads / simulated_makespan(shared.costs, params);
      const double spread_rate =
          reads / simulated_makespan(spread.costs, params);
      std::printf("%10.0fus %11.0fMB/s %18.0f %18.0f %7.2fx\n", alpha * 1e6,
                  beta / 1e6, shared_rate, spread_rate,
                  shared_rate / spread_rate);
    }
  }
  print_rule();
  std::printf("expected: shared/spread ratio > 1 across the whole grid.\n");
  return 0;
}
