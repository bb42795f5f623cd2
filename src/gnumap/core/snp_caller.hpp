// Step 3 / Figure 1 steps (C)-(D): scanning the accumulated genome and
// applying the LRT at every covered position.
#pragma once

#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/io/snp_writer.hpp"

namespace gnumap {

/// Returns `min_coverage` if it is a valid PipelineConfig::min_coverage;
/// throws ConfigError for a negative or NaN value.
double checked_min_coverage(double min_coverage);

/// Calls SNPs over global positions [begin, end) (clamped to the
/// accumulator's range and to real contig positions).  A site becomes a SNP
/// call when the LRT is significant at config.alpha (or survives BH-FDR at
/// config.fdr_q when config.use_fdr) AND the winning allele set differs from
/// the reference.  Only the accumulator's resident ranges are scanned: a
/// position with no mass (n = 0) is never an LRT test, whatever
/// config.min_coverage says.  Gap-allele wins (deletions) are reported with
/// the gap code in allele1/allele2.
std::vector<SnpCall> call_snps(const Genome& genome, const Accumulator& accum,
                               const PipelineConfig& config,
                               GenomePos begin = 0, GenomePos end = 0);

}  // namespace gnumap
