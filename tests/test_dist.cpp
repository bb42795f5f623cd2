// Tests for the two distributed modes: agreement with the serial pipeline
// and communication accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/evaluation.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {
namespace {

struct Workload {
  Genome ref;
  SnpCatalog catalog;
  std::vector<Read> reads;
};

Workload make_workload(std::uint64_t length = 40000, double coverage = 12.0) {
  ReferenceGenOptions ref_options;
  ref_options.length = length;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = 20;
  w.catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, w.catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = coverage;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  return w;
}

PipelineConfig test_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  return config;
}

std::set<std::uint64_t> positions(const std::vector<SnpCall>& calls) {
  std::set<std::uint64_t> out;
  for (const auto& call : calls) out.insert(call.position);
  return out;
}

class ReadPartitionRanks : public ::testing::TestWithParam<int> {};

TEST_P(ReadPartitionRanks, MatchesSerialCalls) {
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  const auto serial = run_pipeline(w.ref, w.reads, config);

  DistOptions options;
  options.ranks = GetParam();
  options.mode = DistMode::kReadPartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);

  EXPECT_EQ(positions(serial.calls), positions(dist.calls));
  EXPECT_EQ(dist.stats.reads_total, serial.stats.reads_total);
  EXPECT_EQ(dist.stats.reads_mapped, serial.stats.reads_mapped);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ReadPartitionRanks,
                         ::testing::Values(1, 2, 3, 5));

class GenomePartitionRanks : public ::testing::TestWithParam<int> {};

TEST_P(GenomePartitionRanks, RecoversSnpsAcrossSegmentBoundaries) {
  const Workload w = make_workload();
  PipelineConfig config = test_config();

  DistOptions options;
  options.ranks = GetParam();
  options.mode = DistMode::kGenomePartition;
  options.batch_size = 128;
  const auto dist = run_distributed(w.ref, w.reads, config, options);

  const auto eval = evaluate_calls(dist.calls, w.catalog);
  EXPECT_GT(eval.recall(), 0.8) << "tp=" << eval.tp << " fn=" << eval.fn;
  EXPECT_GT(eval.precision(), 0.8) << "fp=" << eval.fp;
}

TEST_P(GenomePartitionRanks, AgreesWithSerialOnCleanData) {
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  const auto serial = run_pipeline(w.ref, w.reads, config);

  DistOptions options;
  options.ranks = GetParam();
  options.mode = DistMode::kGenomePartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);

  // Weight pruning is applied locally per rank, so the accumulated masses
  // can differ slightly from serial; the call *sets* must still agree on
  // this clean workload.
  const auto serial_set = positions(serial.calls);
  const auto dist_set = positions(dist.calls);
  std::set<std::uint64_t> symmetric_difference;
  std::set_symmetric_difference(
      serial_set.begin(), serial_set.end(), dist_set.begin(), dist_set.end(),
      std::inserter(symmetric_difference, symmetric_difference.begin()));
  EXPECT_LE(symmetric_difference.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Ranks, GenomePartitionRanks,
                         ::testing::Values(2, 3, 4, 6));

TEST(DistModes, RankLocalTsvSpliceIsByteIdenticalToRootRender) {
  // Both modes assemble DistResult::tsv from rank-local formatting; the
  // document must be byte-identical to rendering the final call list at
  // the root (which is what the serial pipeline would emit for the same
  // calls).  Genome-partition exercises the rank-order body splice,
  // read-partition the rank-0 self-render.
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  for (const DistMode mode :
       {DistMode::kReadPartition, DistMode::kGenomePartition}) {
    DistOptions options;
    options.ranks = 3;
    options.mode = mode;
    options.batch_size = 128;
    const auto dist = run_distributed(w.ref, w.reads, config, options);
    ASSERT_FALSE(dist.calls.empty());
    std::ostringstream expected;
    write_snps_tsv(expected, dist.calls);
    EXPECT_EQ(dist.tsv, expected.str())
        << (mode == DistMode::kReadPartition ? "read" : "genome")
        << "-partition";
  }
}

TEST(DistModes, SingleRankGenomePartitionMatchesSerial) {
  const Workload w = make_workload(25000, 10.0);
  const PipelineConfig config = test_config();
  const auto serial = run_pipeline(w.ref, w.reads, config);

  DistOptions options;
  options.ranks = 1;
  options.mode = DistMode::kGenomePartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);
  EXPECT_EQ(positions(serial.calls), positions(dist.calls));
}

TEST(DistModes, SnpExactlyOnSegmentBoundaryIsCalledOnce) {
  // Plant SNPs straddling every segment boundary of a 4-rank partition and
  // verify each is called exactly once (margins overlap, cores do not).
  ReferenceGenOptions ref_options;
  ref_options.length = 40000;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  const Genome ref = generate_reference(ref_options);

  const int ranks = 4;
  const std::uint64_t seg = ref.padded_size() / ranks;
  SnpCatalog catalog;
  // Offsets are spread out: directly adjacent complementary SNPs create a
  // genuine alignment ambiguity (a 1-base shift plus gaps explains them as
  // well as 3 mismatches) that even the serial pipeline dilutes over; that
  // is not what this test probes.
  for (int r = 1; r < ranks; ++r) {
    for (const std::int64_t offset : {-7, 0, 7}) {
      const auto pos =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(seg * r) + offset);
      if (pos >= ref.num_bases()) continue;
      CatalogEntry entry;
      entry.contig = "chrSim";
      entry.position = pos;
      entry.ref = ref.at(pos);
      if (entry.ref >= 4) continue;
      entry.alt = static_cast<std::uint8_t>(entry.ref ^ 2);  // transition
      catalog.push_back(entry);
    }
  }
  ASSERT_GE(catalog.size(), 6u);

  const Genome individual = apply_catalog(ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 14.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  DistOptions options;
  options.ranks = ranks;
  options.mode = DistMode::kGenomePartition;
  const auto dist = run_distributed(ref, reads, test_config(), options);

  // Each truth site appears at most once in the gathered call list.
  std::map<std::uint64_t, int> call_counts;
  for (const auto& call : dist.calls) call_counts[call.position] += 1;
  for (const auto& [pos, count] : call_counts) {
    EXPECT_EQ(count, 1) << "position " << pos << " called " << count
                        << " times";
  }
  const auto eval = evaluate_calls(dist.calls, catalog);
  EXPECT_GT(eval.recall(), 0.7) << "tp=" << eval.tp << " fn=" << eval.fn;
}

TEST(DistModes, ReadPartitionCommVolumeScalesWithGenome) {
  const Workload w = make_workload(25000, 6.0);
  const PipelineConfig config = test_config();
  DistOptions options;
  options.ranks = 4;
  options.mode = DistMode::kReadPartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);

  // The dominant traffic is the accumulator reduction: non-root ranks send
  // at least one genome-sized buffer (20 bytes/position for NORM).
  const std::uint64_t genome_bytes = w.ref.padded_size() * 20;
  std::uint64_t total_sent = 0;
  for (const auto& cost : dist.costs) total_sent += cost.comm.bytes_sent;
  EXPECT_GE(total_sent, genome_bytes);  // at least the leaf sends
  EXPECT_GT(dist.costs[1].comm.bytes_sent, genome_bytes / 2);
}

TEST(DistModes, GenomePartitionBroadcastsReads) {
  const Workload w = make_workload(25000, 6.0);
  const PipelineConfig config = test_config();
  DistOptions options;
  options.ranks = 4;
  options.mode = DistMode::kGenomePartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);

  // Every read's bases+quals cross the network at least once.
  std::uint64_t read_bytes = 0;
  for (const auto& read : w.reads) read_bytes += 2 * read.length();
  EXPECT_GT(dist.costs[0].comm.bytes_sent, read_bytes / 2);

  // Per-rank accumulators are segment-sized: much smaller than the genome.
  EXPECT_LT(dist.max_rank_accum_bytes, w.ref.padded_size() * 20 / 2);
}

TEST(DistModes, RanksReportPerRankCpuComputeTimes) {
  const Workload w = make_workload(15000, 4.0);
  const PipelineConfig config = test_config();
  DistOptions options;
  options.ranks = 2;
  options.mode = DistMode::kReadPartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);
  for (const auto& cost : dist.costs) {
    EXPECT_GT(cost.compute_seconds, 0.0);
  }
}

TEST(DistModes, RejectsBadOptions) {
  const Workload w = make_workload(15000, 2.0);
  DistOptions options;
  options.ranks = 0;
  EXPECT_THROW(run_distributed(w.ref, w.reads, test_config(), options),
               ConfigError);
}

class AccumKindDist : public ::testing::TestWithParam<AccumKind> {};

TEST_P(AccumKindDist, ReadPartitionReducesEveryKind) {
  const Workload w = make_workload(20000, 8.0);
  PipelineConfig config = test_config();
  config.accum_kind = GetParam();

  DistOptions options;
  options.ranks = 3;
  options.mode = DistMode::kReadPartition;
  const auto dist = run_distributed(w.ref, w.reads, config, options);
  // All kinds must produce some calls on a mutated genome; exact accuracy
  // per kind is the subject of the Table III bench.
  if (GetParam() != AccumKind::kCentDisc) {
    const auto eval = evaluate_calls(dist.calls, w.catalog);
    EXPECT_GT(eval.recall(), 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AccumKindDist,
                         ::testing::Values(AccumKind::kNorm,
                                           AccumKind::kCharDisc,
                                           AccumKind::kCentDisc));

}  // namespace
}  // namespace gnumap
