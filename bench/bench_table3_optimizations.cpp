// Table III reproduction: memory, wall clock, and accuracy for a SNP-calling
// run under each memory optimization.
//
//   Paper (chrX, subset of the Table I reads, 30 machines):
//     NORM      4.76GB  04:25:55   TP 1309  FP 127    91%
//     CHARDISC  2.58GB  04:36:58   TP 677   FP 0      100%
//     CENTDISC  2.01GB  04:27:29   TP 166   FP 9058   0.08%
//
// Expected shape: all three take about the same time; CHARDISC trades
// roughly half the true positives for near-zero false positives (precision
// up); CENTDISC's precision collapses because every add requantizes and the
// rank reduction goes through the equal-weight table.  The run uses 4 mpsim
// ranks in read-partition mode so the reduction path (where CENTDISC loses
// the most) is exercised, like the paper's cluster runs.
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/evaluation.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/util/string_util.hpp"
#include "gnumap/util/timer.hpp"

using namespace gnumap;
using namespace gnumap::bench;

int main(int argc, char** argv) {
  gnumap::obs::strip_cli_flags(argc, argv);
  WorkloadOptions options;
  options.genome_length = 1'000'000;
  if (argc > 1) options.genome_length = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Table III: memory, wall clock, accuracy per "
              "optimization ===\n");
  const Workload w = make_workload(options);
  std::printf("genome %.2f Mbp | %zu reads | %zu planted SNPs | "
              "4 ranks, read-partition\n\n",
              static_cast<double>(options.genome_length) / 1e6,
              w.reads.size(), w.catalog.size());

  print_rule();
  std::printf("%-12s %12s %10s %7s %7s %10s\n", "Optim.", "MEM", "WT", "TP",
              "FP", "Precision");
  print_rule();
  struct Row {
    const char* name;
    AccumKind kind;
    CentDiscQuantize quantize;
  };
  const Row rows[] = {
      {"NORM", AccumKind::kNorm, CentDiscQuantize::kApproximate},
      {"CHARDISC", AccumKind::kCharDisc, CentDiscQuantize::kApproximate},
      {"CENTDISC", AccumKind::kCentDisc, CentDiscQuantize::kApproximate},
      // Our extension: exact nearest-centroid conversion, not in the paper.
      {"CENTDISC-NN", AccumKind::kCentDisc, CentDiscQuantize::kNearest},
  };
  for (const auto& row : rows) {
    const AccumKind kind = row.kind;
    PipelineConfig config = default_pipeline_config();
    config.accum_kind = kind;
    config.centdisc_quantize = row.quantize;

    DistOptions dist_options;
    dist_options.ranks = 4;
    dist_options.mode = DistMode::kReadPartition;

    Timer timer;
    const HashIndex index(w.reference, config.index);
    const auto result =
        run_distributed(w.reference, w.reads, config, dist_options, &index);
    const double wall = timer.seconds();
    const auto eval = evaluate_calls(result.calls, w.catalog);

    std::printf("%-12s %12s %10s %7llu %7llu %9.2f%%\n", row.name,
                format_bytes(result.max_rank_accum_bytes).c_str(),
                format_hms(wall).c_str(),
                static_cast<unsigned long long>(eval.tp),
                static_cast<unsigned long long>(eval.fp),
                eval.precision() * 100.0);
    std::printf("%-12s   phmm kernel %.3fs fwd + %.3fs bwd over %llu DP "
                "cells (%s)\n", "",
                result.stats.phmm_forward_seconds,
                result.stats.phmm_backward_seconds,
                static_cast<unsigned long long>(result.stats.dp_cells),
                phmm::simd_level_name(
                    phmm::resolve_simd_level(config.simd)));
  }
  print_rule();
  std::printf("paper: NORM 4.76GB/04:25:55/1309/127/91%% | "
              "CHARDISC 2.58GB/04:36:58/677/0/100%% | "
              "CENTDISC 2.01GB/04:27:29/166/9058/0.08%%\n");
  std::printf("CENTDISC-NN (exact nearest-centroid) is this repo's "
              "extension; the paper only evaluated the approximate "
              "conversion.\n");
  return 0;
}
