// Seeded input generation for the repository benchmark.
//
// Every input a workload uses is a pure function of the workload seed:
// the 2 Mbp reference (a 200 kbp "target" contig plus a 1.8 Mbp
// "background" contig), the planted SNP truth on the target, the batch
// reads, the amplicon requests, and the open-loop arrival schedule.  The
// program under test only ever sees the rendered FASTA/FASTQ text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gnumap/genome/genome.hpp"
#include "gnumap/io/snp_catalog.hpp"

namespace perfbench {

inline constexpr std::uint64_t kTargetBases = 200'000;
inline constexpr std::uint64_t kBackgroundBases = 1'800'000;
/// One planted SNP per this many target bases.
inline constexpr std::uint64_t kSnpSpacing = 1'000;
/// Batch reads: the paper's shape (62 bp, the sim error ramp, 12x).
inline constexpr std::uint32_t kBatchReadLength = 62;
inline constexpr double kBatchCoverage = 12.0;
/// Amplicon requests: 30 reads simulated at 150 bp from a 200 bp window
/// centred on one planted SNP, then trimmed to 100-150 bp, so nearly every
/// read spans the SNP (about 30x there).
inline constexpr std::uint64_t kAmpliconBases = 200;
inline constexpr std::uint32_t kAmpliconReadLength = 150;
inline constexpr std::uint32_t kAmpliconMinLength = 100;
inline constexpr std::size_t kAmpliconReads = 30;

struct Reference {
  gnumap::Genome genome;          ///< "target" then "background"
  gnumap::Genome individual;      ///< target contig with the SNPs applied
  gnumap::SnpCatalog truth;       ///< planted SNPs (contig "target")
};

/// The seeded 2 Mbp reference and its planted truth.
Reference make_reference(std::uint64_t seed);

/// FASTA text of the reference (both contigs).
std::string reference_fasta(const gnumap::Genome& genome);

/// FASTQ text of the batch reads: 62 bp at 12x over the target contig.
std::string batch_fastq(const Reference& ref, std::uint64_t seed);

/// One amplicon request: its FASTQ text and the planted SNPs it covers.
struct AmpliconRequest {
  std::string fastq;
  gnumap::SnpCatalog truth;
};

/// `count` amplicon requests, each over one planted SNP in a seeded order.
std::vector<AmpliconRequest> amplicon_requests(const Reference& ref,
                                               std::uint64_t seed,
                                               std::size_t count);

/// Open-loop arrival offsets in seconds: `count` Poisson arrivals
/// conditioned to land in [0, count / rate), i.e. sorted uniform order
/// statistics, so every seed offers exactly the same mean rate.
std::vector<double> arrival_schedule(std::uint64_t seed, std::size_t count,
                                     double rate_per_s);

/// The q-quantile (0 < q < 1) of `samples` by the nearest-rank rule, or
/// nothing when fewer than ten samples lie strictly beyond that rank —
/// a tail percentile is never reported from too few samples.
std::optional<double> percentile(std::vector<double> samples, double q);

}  // namespace perfbench
