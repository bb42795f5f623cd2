// Tests for SAM output: writer formatting and the mapper -> SAM export.
#include <gtest/gtest.h>

#include <sstream>

#include "gnumap/core/pipeline.hpp"
#include "gnumap/core/sam_export.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/io/sam.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/string_util.hpp"

namespace gnumap {
namespace {

Genome two_contig_genome() {
  Genome g;
  g.add_contig("chrA", "ACGTACGTACGTACGTACGT");
  g.add_contig("chrB", "TTTTGGGGCCCCAAAA");
  return g;
}

TEST(SamWriter, HeaderListsContigs) {
  std::ostringstream out;
  write_sam_header(out, two_contig_genome());
  const std::string text = out.str();
  EXPECT_NE(text.find("@HD\tVN:1.6"), std::string::npos);
  EXPECT_NE(text.find("@SQ\tSN:chrA\tLN:20"), std::string::npos);
  EXPECT_NE(text.find("@SQ\tSN:chrB\tLN:16"), std::string::npos);
  EXPECT_NE(text.find("@PG\tID:gnumap-snp"), std::string::npos);
}

TEST(SamWriter, MappedRecordFields) {
  const Genome g = two_contig_genome();
  SamRecord record;
  record.qname = "read1";
  record.flags = SamRecord::kReverse;
  record.contig_id = 1;
  record.position = 4;  // 0-based
  record.mapq = 37;
  record.cigar = {AlignOp::kMatch, AlignOp::kMatch, AlignOp::kMatch,
                  AlignOp::kReadGap, AlignOp::kMatch};
  record.bases = encode_sequence("GGGGC");
  record.quals = {30, 30, 30, 30, 30};
  record.weight = 0.75;

  std::ostringstream out;
  write_sam_record(out, g, record);
  const std::string line = out.str();
  // QNAME FLAG RNAME POS(1-based) MAPQ CIGAR
  EXPECT_NE(line.find("read1\t16\tchrB\t5\t37\t3M1I1M\t"), std::string::npos);
  EXPECT_NE(line.find("GGGGC\t?????"), std::string::npos)
      << line;  // '?' is ASCII 63 = Q30 + 33
  EXPECT_NE(line.find("ZW:f:0.75"), std::string::npos);
}

TEST(SamWriter, UnmappedRecord) {
  const Genome g = two_contig_genome();
  SamRecord record;
  record.qname = "lost";
  record.flags = SamRecord::kUnmapped;
  record.bases = encode_sequence("ACGT");
  record.quals = {20, 20, 20, 20};
  std::ostringstream out;
  write_sam_record(out, g, record);
  const std::string line = out.str();
  EXPECT_NE(line.find("lost\t4\t*\t0\t0\t*\t"), std::string::npos);
}

TEST(SamExport, PerfectReadPrimaryAlignment) {
  ReferenceGenOptions ref_options;
  ref_options.length = 30000;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  const Genome genome = generate_reference(ref_options);

  PipelineConfig config;
  config.index.k = 9;
  const HashIndex index(genome, config.index);
  const ReadMapper mapper(genome, index, config);

  // A perfect read from a known position.
  const std::uint64_t origin = 12345;
  Read read;
  read.name = "perfect";
  for (int i = 0; i < 62; ++i) {
    read.bases.push_back(genome.at(origin + static_cast<std::uint64_t>(i)));
  }
  read.quals.assign(62, 40);

  MapperWorkspace ws;
  MapStats stats;
  const auto sites = mapper.score_reads({&read, 1}, ws, stats).front();
  ASSERT_FALSE(sites.empty());
  const auto records = to_sam_records(genome, read, sites, config);
  ASSERT_FALSE(records.empty());

  // Exactly one primary record, at the true origin, 62M.
  int primaries = 0;
  for (const auto& record : records) {
    if ((record.flags & SamRecord::kSecondary) == 0 &&
        (record.flags & SamRecord::kUnmapped) == 0) {
      ++primaries;
      EXPECT_EQ(record.position, origin);
      EXPECT_EQ(ops_to_cigar(record.cigar), "62M");
      EXPECT_GE(record.mapq, 30);
      EXPECT_NEAR(record.weight, 1.0, 1e-6);
    }
  }
  EXPECT_EQ(primaries, 1);
}

TEST(SamExport, MultimappedReadGetsSecondaryRecords) {
  // Two identical 500 bp copies: two records, one primary + one secondary,
  // each with weight ~0.5 and low MAPQ.
  Rng rng(99);
  std::string unit;
  for (int i = 0; i < 500; ++i) unit += "ACGT"[rng.next_below(4)];
  std::string filler;
  for (int i = 0; i < 1500; ++i) filler += "ACGT"[rng.next_below(4)];
  Genome genome;
  genome.add_contig("chr1", unit + filler + unit);

  PipelineConfig config;
  config.index.k = 9;
  const HashIndex index(genome, config.index);
  const ReadMapper mapper(genome, index, config);

  Read read;
  read.name = "dup";
  read.bases = encode_sequence(unit.substr(200, 62));
  read.quals.assign(62, 40);
  MapperWorkspace ws;
  MapStats stats;
  const auto sites = mapper.score_reads({&read, 1}, ws, stats).front();
  ASSERT_EQ(sites.size(), 2u);
  const auto records = to_sam_records(genome, read, sites, config);
  ASSERT_EQ(records.size(), 2u);

  int secondaries = 0;
  for (const auto& record : records) {
    EXPECT_NEAR(record.weight, 0.5, 0.05);
    EXPECT_LE(record.mapq, 5);
    secondaries += (record.flags & SamRecord::kSecondary) ? 1 : 0;
  }
  EXPECT_EQ(secondaries, 1);
}

TEST(SamExport, ReverseReadFlaggedAndOriented) {
  ReferenceGenOptions ref_options;
  ref_options.length = 20000;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  const Genome genome = generate_reference(ref_options);

  PipelineConfig config;
  config.index.k = 9;
  const HashIndex index(genome, config.index);
  const ReadMapper mapper(genome, index, config);

  const std::uint64_t origin = 5000;
  std::vector<std::uint8_t> tmpl;
  for (int i = 0; i < 62; ++i) {
    tmpl.push_back(genome.at(origin + static_cast<std::uint64_t>(i)));
  }
  Read read;
  read.name = "rev";
  read.bases = reverse_complement(tmpl);
  read.quals.assign(62, 40);

  MapperWorkspace ws;
  MapStats stats;
  const auto sites = mapper.score_reads({&read, 1}, ws, stats).front();
  ASSERT_FALSE(sites.empty());
  const auto records = to_sam_records(genome, read, sites, config);
  ASSERT_FALSE(records.empty());
  const auto& primary = records.front();
  EXPECT_TRUE(primary.flags & SamRecord::kReverse);
  EXPECT_EQ(primary.position, origin);
  // SEQ is stored in alignment (forward-genome) orientation.
  EXPECT_EQ(primary.bases, tmpl);
}

TEST(SamExport, UnmappedReadRecord) {
  ReferenceGenOptions ref_options;
  ref_options.length = 20000;
  const Genome genome = generate_reference(ref_options);
  PipelineConfig config;
  config.index.k = 9;

  Read read;
  read.name = "junk";
  read.bases.assign(62, kBaseN);
  read.quals.assign(62, 2);
  const auto records = to_sam_records(genome, read, {}, config);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].flags & SamRecord::kUnmapped);
  EXPECT_EQ(records[0].qname, "junk");
}

TEST(SamExport, PipelineStreamsValidSam) {
  ReferenceGenOptions ref_options;
  ref_options.length = 30000;
  ref_options.n_fraction = 0.0;
  const Genome genome = generate_reference(ref_options);
  ReadSimOptions sim_options;
  sim_options.coverage = 2.0;
  const auto reads = strip_metadata(simulate_reads(genome, sim_options));

  PipelineConfig config;
  config.index.k = 9;
  std::ostringstream sam;
  run_pipeline_with_accumulator(genome, reads, config, nullptr, &sam);

  const std::string text = sam.str();
  EXPECT_NE(text.find("@HD"), std::string::npos);
  // One alignment line (at least) per read; count non-header lines.
  std::size_t lines = 0;
  for (const auto line : split(text, '\n')) {
    if (!line.empty() && line[0] != '@') ++lines;
  }
  EXPECT_GE(lines, reads.size());
}

}  // namespace
}  // namespace gnumap
