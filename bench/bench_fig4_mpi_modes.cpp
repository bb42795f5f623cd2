// Figure 4 reproduction: sequence processing rate for the two MPI methods.
//
// The paper plots sequences/second against node count for (a) the
// shared-genome mode (reads partitioned; black line, near the red perfect-
// linear line) and (b) the spread-memory mode (genome partitioned; blue
// line, clearly below).  "Note that the spread memory mode does not process
// as many sequences, so the shared memory mode should be used when
// possible."
//
// The runs execute for real on mpsim (so the communication volume is exact
// and per-rank compute is each rank thread's CPU time, which excludes time
// spent waiting for a core); the multi-node rate comes from the alpha-beta
// cost model (see DESIGN.md).  Expected shape: read-partition ~linear,
// genome-partition sub-linear and below at every node count.  The last
// column is the read-partition run's total bytes sent: the accumulator
// reduction plus the read batches rank 0 ships to their owners.
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
  // Keep per-read cost variance low so small shards at high rank counts are
  // not dominated by a few repeat-heavy reads (the paper's shards held ~1M
  // reads each; ours are thousands).
  options.repeat_fraction = 0.01;
  if (argc > 1) options.genome_length = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Figure 4: sequence processing rate, two MPI methods ===\n");
  const Workload w = make_workload(options);
  PipelineConfig config = default_pipeline_config();
  config.seeder.max_candidates = 16;
  const HashIndex shared_index(w.reference, config.index);
  std::printf("genome %.2f Mbp | %zu reads | cost model: alpha=50us, "
              "beta=1Gbit/s\n\n",
              static_cast<double>(options.genome_length) / 1e6,
              w.reads.size());

  const CostModelParams cost_params;
  const int node_counts[] = {1, 2, 4, 8, 16, 30};

  // Warm caches/pages so the 1-node baseline is not measured cold.
  {
    DistOptions warmup;
    warmup.ranks = 1;
    run_distributed(w.reference, w.reads, config, warmup, &shared_index);
  }

  print_rule();
  std::printf("%6s %28s %28s %10s %12s\n", "nodes", "shared genome (seq/s)",
              "spread memory (seq/s)", "perfect", "shared MB");
  print_rule();

  double base_rate = 0.0;
  for (const int nodes : node_counts) {
    DistOptions dist_options;
    dist_options.ranks = nodes;

    dist_options.mode = DistMode::kReadPartition;
    const auto shared =
        run_distributed(w.reference, w.reads, config, dist_options,
                        &shared_index);
    const double shared_time = simulated_makespan(shared.costs, cost_params);
    const double shared_rate =
        static_cast<double>(w.reads.size()) / shared_time;

    dist_options.mode = DistMode::kGenomePartition;
    const auto spread =
        run_distributed(w.reference, w.reads, config, dist_options);
    const double spread_time = simulated_makespan(spread.costs, cost_params);
    const double spread_rate =
        static_cast<double>(w.reads.size()) / spread_time;

    std::uint64_t shared_bytes = 0;
    for (const auto& cost : shared.costs) shared_bytes += cost.comm.bytes_sent;

    if (nodes == 1) base_rate = shared_rate;
    std::printf("%6d %20.0f (%4.1fx) %20.0f (%4.1fx) %10.0f %12.2f\n", nodes,
                shared_rate, shared_rate / base_rate, spread_rate,
                spread_rate / base_rate, base_rate * nodes,
                static_cast<double>(shared_bytes) / 1e6);
  }
  print_rule();
  std::printf("paper shape: shared-genome tracks the perfect-linear line; "
              "spread-memory falls below at every node count.\n");
  return 0;
}
