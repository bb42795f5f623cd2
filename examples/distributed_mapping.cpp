// Distributed mapping demo: the paper's two MPI strategies on the mpsim
// substrate, with communication accounting and modeled cluster speedup.
//
// Usage: distributed_mapping [ranks] [genome_bp]
//                            [--trace-out FILE] [--metrics-out FILE]
//
// With --trace-out the run emits a Chrome trace with one named track per
// rank (comm/compute/checkpoint spans); --metrics-out exports the registry
// (per-rank counters included) as JSON or Prometheus text.
#include <cstdio>
#include <cstdlib>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/evaluation.hpp"
#include "gnumap/mpsim/cost_model.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/string_util.hpp"

using namespace gnumap;

int main(int argc, char** argv) {
  obs::strip_cli_flags(argc, argv);
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t genome_bp =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200'000;

  // Workload: mutated genome + 8x reads.
  ReferenceGenOptions ref_options;
  ref_options.length = genome_bp;
  const Genome reference = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = std::max<std::uint64_t>(10, genome_bp / 10'600);
  const auto truth = generate_catalog(reference, catalog_options);
  const Genome individual = apply_catalog(reference, truth);
  ReadSimOptions sim_options;
  sim_options.coverage = 8.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  PipelineConfig config;
  config.index.k = 10;
  const HashIndex shared_index(reference, config.index);
  const CostModelParams cost_params;

  std::printf("workload: %.2f Mbp genome, %zu reads, %zu truth SNPs, "
              "%d ranks\n\n",
              static_cast<double>(genome_bp) / 1e6, reads.size(),
              truth.size(), ranks);

  for (const auto mode :
       {DistMode::kReadPartition, DistMode::kGenomePartition}) {
    const bool read_partition = mode == DistMode::kReadPartition;
    DistOptions options;
    options.ranks = ranks;
    options.mode = mode;
    const auto result = run_distributed(reference, reads, config, options,
                                        read_partition ? &shared_index
                                                       : nullptr);
    const auto eval = evaluate_calls(result.calls, truth);

    std::printf("--- %s ---\n", read_partition
                                    ? "read partition (shared genome)"
                                    : "genome partition (spread memory)");
    std::printf("calls %zu (recall %.1f%%, precision %.1f%%)\n",
                result.calls.size(), eval.recall() * 100.0,
                eval.precision() * 100.0);
    std::printf("per-rank accumulator: %s (total %s)\n",
                format_bytes(result.max_rank_accum_bytes).c_str(),
                format_bytes(result.total_accum_bytes).c_str());
    std::printf("  %-6s %10s %12s %12s %12s %12s\n", "rank", "compute",
                "msgs sent", "sent", "msgs recv", "recv");
    CommStats totals;
    for (int r = 0; r < ranks; ++r) {
      const auto& cost = result.costs[static_cast<std::size_t>(r)];
      std::printf("  %-6d %9.2fs %12llu %12s %12llu %12s\n", r,
                  cost.compute_seconds,
                  static_cast<unsigned long long>(cost.comm.messages_sent),
                  format_bytes(cost.comm.bytes_sent).c_str(),
                  static_cast<unsigned long long>(
                      cost.comm.messages_received),
                  format_bytes(cost.comm.bytes_received).c_str());
      totals.messages_sent += cost.comm.messages_sent;
      totals.bytes_sent += cost.comm.bytes_sent;
      totals.messages_received += cost.comm.messages_received;
      totals.bytes_received += cost.comm.bytes_received;
    }
    std::printf("  %-6s %10s %12llu %12s %12llu %12s\n", "total", "",
                static_cast<unsigned long long>(totals.messages_sent),
                format_bytes(totals.bytes_sent).c_str(),
                static_cast<unsigned long long>(totals.messages_received),
                format_bytes(totals.bytes_received).c_str());
    const double makespan = simulated_makespan(result.costs, cost_params);
    std::printf("modeled cluster makespan: %.2fs -> %.0f sequences/s\n\n",
                makespan, static_cast<double>(reads.size()) / makespan);
  }
  return 0;
}
