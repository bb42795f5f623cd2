#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "gnumap/genome/sequence.hpp"
#include "gnumap/io/fasta.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/rng.hpp"

namespace perfbench {

using namespace gnumap;

namespace {

/// Independent sub-seeds per input, so changing how one input is drawn
/// never shifts another.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed * 0x100000001b3ULL + stream);
  return mix.next();
}

std::vector<std::uint8_t> contig_codes(const Genome& genome,
                                       std::uint32_t contig,
                                       std::uint64_t begin,
                                       std::uint64_t end) {
  const auto start = genome.contig_start(contig);
  const auto data = genome.data();
  return std::vector<std::uint8_t>(data.begin() + start + begin,
                                   data.begin() + start + end);
}

std::string fastq_text(const std::vector<Read>& reads) {
  std::ostringstream out;
  write_fastq(out, reads);
  return out.str();
}

}  // namespace

Reference make_reference(std::uint64_t seed) {
  ReferenceGenOptions target_options;
  target_options.length = kTargetBases;
  target_options.repeat_fraction = 0.03;
  target_options.seed = sub_seed(seed, 1);
  const Genome target = generate_reference(target_options, "target");

  ReferenceGenOptions background_options = target_options;
  background_options.length = kBackgroundBases;
  background_options.seed = sub_seed(seed, 2);
  const Genome background =
      generate_reference(background_options, "background");

  Reference ref;
  ref.genome.add_contig("target", contig_codes(target, 0, 0, kTargetBases));
  ref.genome.add_contig("background",
                        contig_codes(background, 0, 0, kBackgroundBases));

  CatalogGenOptions catalog_options;
  catalog_options.count = kTargetBases / kSnpSpacing;
  catalog_options.seed = sub_seed(seed, 3);
  ref.truth = generate_catalog(target, catalog_options);
  ref.individual = apply_catalog(target, ref.truth);
  return ref;
}

std::string reference_fasta(const Genome& genome) {
  std::vector<FastaRecord> records;
  for (std::uint32_t c = 0; c < genome.num_contigs(); ++c) {
    const auto codes = contig_codes(genome, c, 0, genome.contig_size(c));
    std::string seq(codes.size(), 'N');
    std::transform(codes.begin(), codes.end(), seq.begin(), decode_base);
    records.emplace_back(genome.contig_name(c), std::move(seq));
  }
  std::ostringstream out;
  write_fasta(out, records);
  return out.str();
}

std::string batch_fastq(const Reference& ref, std::uint64_t seed) {
  ReadSimOptions options;
  options.read_length = kBatchReadLength;
  options.coverage = kBatchCoverage;
  options.seed = sub_seed(seed, 4);
  return fastq_text(strip_metadata(simulate_reads(ref.individual, options)));
}

std::vector<AmpliconRequest> amplicon_requests(const Reference& ref,
                                               std::uint64_t seed,
                                               std::size_t count) {
  // Visit the planted SNPs in a seeded order; a stream longer than the
  // catalog wraps around with fresh read draws.
  std::vector<std::size_t> order(ref.truth.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng shuffle(sub_seed(seed, 5));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.next_below(i)]);
  }

  std::vector<AmpliconRequest> requests;
  requests.reserve(count);
  Rng trim(sub_seed(seed, 6));
  for (std::size_t r = 0; r < count; ++r) {
    const auto& snp = ref.truth[order[r % order.size()]];
    const std::uint64_t half = kAmpliconBases / 2;
    const std::uint64_t begin =
        std::min(snp.position >= half ? snp.position - half : 0,
                 kTargetBases - kAmpliconBases);
    Genome amplicon;
    amplicon.add_contig("amplicon",
                        contig_codes(ref.individual, 0, begin,
                                     begin + kAmpliconBases));
    ReadSimOptions options;
    options.read_length = kAmpliconReadLength;
    options.coverage = static_cast<double>(kAmpliconReads) *
                       kAmpliconReadLength / kAmpliconBases;
    options.seed = sub_seed(seed, 1000 + r);
    auto reads = strip_metadata(simulate_reads(amplicon, options));
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto keep = static_cast<std::size_t>(
          kAmpliconMinLength +
          trim.next_below(kAmpliconReadLength - kAmpliconMinLength + 1));
      reads[i].bases.resize(std::min(keep, reads[i].bases.size()));
      reads[i].quals.resize(reads[i].bases.size());
      reads[i].name = "req" + std::to_string(r) + "_" + std::to_string(i);
    }
    AmpliconRequest request;
    request.fastq = fastq_text(reads);
    for (const auto& e : ref.truth) {
      if (e.position >= begin && e.position < begin + kAmpliconBases) {
        request.truth.push_back(e);
      }
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<double> arrival_schedule(std::uint64_t seed, std::size_t count,
                                     double rate_per_s) {
  const double span = static_cast<double>(count) / rate_per_s;
  Rng rng(sub_seed(seed, 7));
  std::vector<double> at(count);
  for (double& t : at) t = rng.next_double() * span;
  std::sort(at.begin(), at.end());
  return at;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the ceil(q*n)-th smallest sample (1-based).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
