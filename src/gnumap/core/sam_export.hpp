// Converting a read's scored sites into SAM alignment records.
//
// The probabilistic mapper does not commit to one alignment internally, but
// downstream tools expect SAM.  Each retained site becomes one record whose
// CIGAR is the Viterbi (most probable) path at that site; the posterior
// site weight is preserved in the ZW:f tag, the strongest site is primary,
// and MAPQ encodes the primary site's posterior as -10*log10(1 - w).
#pragma once

#include <vector>

#include "gnumap/core/read_mapper.hpp"
#include "gnumap/io/sam.hpp"

namespace gnumap {

/// Builds SAM records for one read.  `sites` comes from
/// ReadMapper::score_reads; an empty vector yields a single unmapped record.
std::vector<SamRecord> to_sam_records(const Genome& genome, const Read& read,
                                      const std::vector<ScoredSite>& sites,
                                      const PipelineConfig& config);

}  // namespace gnumap
