// Table II reproduction: virtual memory of the accumulation state for the
// three layouts, on chrX-scale (155 Mbp) and whole-human-scale (3.1 Gbp).
//
//   Paper:   NORM      4.76 GB (chrX)   100 GB (human)
//            CHARDISC  2.58 GB          58 GB
//            CENTDISC  2.91 GB          40 GB
//
// The accumulators are *measured* on a bench-sized genome with every
// position touched (exact heap bytes of the fully resident buffer) and
// extrapolated analytically from bytes/position; genome + hash-table bytes
// (shared by all layouts) are reported separately.  Expected shape:
// NORM > CHARDISC > CENTDISC.  (The paper's own chrX column lists CENTDISC
// above CHARDISC, contradicting its Table III for the same setup — our
// layout arithmetic matches the Table III ordering.)
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "gnumap/accum/accumulator.hpp"
#include "gnumap/accum/codebook.hpp"
#include "gnumap/index/hash_index.hpp"
#include "gnumap/obs/obs_cli.hpp"
#include "gnumap/util/string_util.hpp"

using namespace gnumap;
using namespace gnumap::bench;

int main(int argc, char** argv) {
  gnumap::obs::strip_cli_flags(argc, argv);
  WorkloadOptions options;
  options.genome_length = 1'000'000;
  options.coverage = 4.0;  // memory does not depend on coverage
  if (argc > 1) options.genome_length = std::strtoull(argv[1], nullptr, 10);

  std::printf("=== Table II: memory usage for optimizations ===\n");
  const Workload w = make_workload(options);
  const std::uint64_t positions = w.reference.padded_size();

  HashIndexOptions index_options;  // k = 10, the paper's default
  const HashIndex index(w.reference, index_options);

  constexpr std::uint64_t kChrX = 155'000'000ull;
  constexpr std::uint64_t kHuman = 3'100'000'000ull;

  print_rule();
  std::printf("%-10s %16s %14s %14s %14s\n", "layout", "bytes/position",
              "measured", "chrX 155Mbp", "human 3.1Gbp");
  print_rule();
  for (const auto kind :
       {AccumKind::kNorm, AccumKind::kCharDisc, AccumKind::kCentDisc}) {
    // Pages are allocated on first touch; touching every position makes
    // the measured column the dense whole-genome buffer (the paper's
    // quantity).
    const auto accum = make_accumulator(kind, 0, positions);
    for (std::uint64_t pos = 0; pos < positions; ++pos) {
      accum->add(pos, {1.0f, 0.0f, 0.0f, 0.0f, 0.0f});
    }
    const double bpp = accum->bytes_per_position();
    const std::uint64_t fixed =
        kind == AccumKind::kCentDisc
            ? CentroidCodebook::instance().memory_bytes()
            : 0;
    std::printf("%-10s %16.1f %14s %14s %14s\n", accum_kind_name(kind), bpp,
                format_bytes(accum->memory_bytes() + fixed).c_str(),
                format_bytes(static_cast<std::uint64_t>(bpp * kChrX) + fixed)
                    .c_str(),
                format_bytes(static_cast<std::uint64_t>(bpp * kHuman) + fixed)
                    .c_str());
  }
  print_rule();
  std::printf("shared state (all layouts): genome %s + hash table %s "
              "(measured at %.2f Mbp, k=%d)\n",
              format_bytes(positions).c_str(),
              format_bytes(index.memory_bytes()).c_str(),
              static_cast<double>(options.genome_length) / 1e6,
              index.k());
  // The hash table's positions array scales linearly with the genome; the
  // 4^k offsets array is fixed.  Extrapolate for the paper scales.
  const std::uint64_t per_base_index =
      index.num_entries() * sizeof(GenomePos) / positions + 1;
  std::printf("hash table extrapolation: chrX ~%s, human ~%s\n",
              format_bytes(per_base_index * kChrX + (1ull << 23)).c_str(),
              format_bytes(per_base_index * kHuman + (1ull << 23)).c_str());
  std::printf("paper: NORM 4.76g/100g, CHARDISC 2.58g/58g, "
              "CENTDISC 2.91g/40g\n");
  return 0;
}
