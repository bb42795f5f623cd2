#include "gnumap/core/snp_caller.hpp"

#include <algorithm>
#include <string>

#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/stats/fdr.hpp"
#include "gnumap/stats/lrt.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {

double checked_min_coverage(double min_coverage) {
  if (!(min_coverage >= 0.0)) {
    throw ConfigError("min_coverage must be >= 0, got " +
                      std::to_string(min_coverage));
  }
  return min_coverage;
}

std::vector<SnpCall> call_snps(const Genome& genome, const Accumulator& accum,
                               const PipelineConfig& config,
                               GenomePos begin, GenomePos end) {
  obs::TraceSpan span("call_snps", "snp");
  begin = std::max(begin, accum.begin());
  end = end == 0 ? accum.begin() + accum.size() : end;

  // Positions outside the resident ranges read back as zeros (n = 0), and
  // an empty position is never tested, so only resident ranges are scanned.
  std::vector<SnpCall> candidates;
  std::uint64_t scanned = 0;
  for (const PositionRange& run : accum.resident_ranges()) {
    const GenomePos run_end = std::min(run.end, end);
    for (GenomePos pos = std::max(run.begin, begin); pos < run_end; ++pos) {
      ++scanned;
      const std::uint8_t ref = genome.at(pos);
      // Skip N reference positions (assembly gaps) and inter-contig padding:
      // a "SNP" against an unknown base is meaningless.
      if (ref >= 4) continue;
      if (!genome.in_contig(pos)) continue;

      const TrackVector counts = accum.counts(pos);
      TrackCounts z;
      double n = 0.0;
      for (int k = 0; k < kNumTracks; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        z[ks] = static_cast<double>(counts[ks]);
        n += z[ks];
      }
      // An empty position is never a test, whatever min_coverage says.
      if (n <= 0.0 || n < config.min_coverage) continue;

      const LrtResult lrt = lrt_test(z, config.ploidy);
      // SNP condition: significant AND the called allele set differs from the
      // reference base.  (Significance filtering happens below, jointly for
      // the fixed-alpha and FDR paths.)
      const bool differs = lrt.allele1 != ref || lrt.allele2 != ref;
      if (!differs) continue;

      const ContigCoord coord = genome.resolve(pos);
      SnpCall call;
      call.contig = genome.contig_name(coord.contig_id);
      call.position = coord.offset;
      call.ref = ref;
      call.allele1 = lrt.allele1;
      call.allele2 = lrt.allele2;
      call.coverage = n;
      call.lrt_stat = lrt.statistic;
      call.p_value = lrt.p_adjusted;
      candidates.push_back(std::move(call));
    }
  }
  span.arg("positions", static_cast<double>(scanned));

  std::vector<SnpCall> calls;
  if (config.use_fdr) {
    std::vector<double> p_values;
    p_values.reserve(candidates.size());
    for (const auto& call : candidates) p_values.push_back(call.p_value);
    const auto keep = benjamini_hochberg(p_values, config.fdr_q);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (keep[i]) calls.push_back(std::move(candidates[i]));
    }
  } else {
    for (auto& call : candidates) {
      if (call.p_value < config.alpha) calls.push_back(std::move(call));
    }
  }
  static obs::Counter& calls_counter = obs::registry().counter(
      "gnumap_snp_calls_total", "SNP calls emitted across all call_snps runs");
  calls_counter.inc(calls.size());
  return calls;
}

}  // namespace gnumap
