// Integration tests for the GNUMAP-SNP core: read mapper, SNP caller, full
// plant-and-recover pipelines (monoploid and diploid), evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gnumap/core/evaluation.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/session.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/stats/fdr.hpp"
#include "gnumap/util/rng.hpp"

namespace gnumap {
namespace {

PipelineConfig test_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  config.min_coverage = 3.0;
  return config;
}

Genome test_reference(std::uint64_t length = 60000, std::uint64_t seed = 41) {
  ReferenceGenOptions options;
  options.length = length;
  options.repeat_fraction = 0.0;
  options.n_fraction = 0.0;
  options.seed = seed;
  return generate_reference(options);
}

// ---------------------------------------------------------------------------
// ReadMapper

TEST(ReadMapper, MapsSimulatedReadToOrigin) {
  const Genome g = test_reference(30000);
  const PipelineConfig config = test_config();
  const HashIndex index(g, config.index);
  const ReadMapper mapper(g, index, config);

  ReadSimOptions sim_options;
  sim_options.coverage = 0.5;
  sim_options.indel_rate = 0.0;
  const auto sims = simulate_reads(g, sim_options);
  ASSERT_GT(sims.size(), 50u);

  MapperWorkspace ws;
  MapStats stats;
  int correct = 0, mapped = 0;
  for (const auto& sim : sims) {
    const auto sites = mapper.score_reads({&sim.read, 1}, ws, stats).front();
    if (sites.empty()) continue;
    ++mapped;
    // Strongest site should cover the true origin.
    const ScoredSite* best = &sites.front();
    for (const auto& site : sites) {
      if (site.weight > best->weight) best = &site;
    }
    const GenomePos truth = g.global_pos(sim.contig, sim.origin);
    if (truth >= best->window_begin &&
        truth < best->window_begin + best->contributions.tracks.size()) {
      ++correct;
    }
  }
  EXPECT_GT(mapped, static_cast<int>(sims.size() * 9 / 10));
  EXPECT_GT(correct, mapped * 9 / 10);
}

TEST(ReadMapper, RandomReadDoesNotMap) {
  const Genome g = test_reference(30000);
  const PipelineConfig config = test_config();
  const HashIndex index(g, config.index);
  const ReadMapper mapper(g, index, config);

  Rng rng(1234);
  MapperWorkspace ws;
  MapStats stats;
  int mapped = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Read read;
    read.name = "random";
    for (int i = 0; i < 62; ++i) {
      read.bases.push_back(static_cast<std::uint8_t>(rng.next_below(4)));
    }
    read.quals.assign(62, 40);
    if (!mapper.score_reads({&read, 1}, ws, stats).front().empty()) ++mapped;
  }
  // Random 62-mers occasionally share a seed but must not pass the
  // log-likelihood cutoff.
  EXPECT_LE(mapped, 2);
}

TEST(ReadMapper, SiteWeightsSumToOne) {
  // A read from a duplicated region maps to both copies with split weight.
  std::string unit;
  Rng rng(77);
  for (int i = 0; i < 400; ++i) unit += "ACGT"[rng.next_below(4)];
  std::string seq;
  for (int i = 0; i < 3; ++i) seq += unit;  // three identical copies
  Genome g;
  g.add_contig("chr1", seq);

  PipelineConfig config = test_config();
  const HashIndex index(g, config.index);
  const ReadMapper mapper(g, index, config);

  Read read;
  read.name = "dup";
  read.bases = encode_sequence(unit.substr(100, 62));
  read.quals.assign(62, 40);
  MapperWorkspace ws;
  MapStats stats;
  const auto sites = mapper.score_reads({&read, 1}, ws, stats).front();
  ASSERT_GE(sites.size(), 3u);
  double total = 0.0;
  for (const auto& site : sites) total += site.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Three identical copies: each gets about a third.
  for (const auto& site : sites) {
    if (site.weight > 0.2) {
      EXPECT_NEAR(site.weight, 1.0 / 3.0, 0.05);
    }
  }
}

// ---------------------------------------------------------------------------
// Full pipeline, monoploid

TEST(Pipeline, RecoversPlantedSnps) {
  const Genome ref = test_reference(60000);
  CatalogGenOptions catalog_options;
  catalog_options.count = 30;
  const auto catalog = generate_catalog(ref, catalog_options);
  const Genome individual = apply_catalog(ref, catalog);

  ReadSimOptions sim_options;
  sim_options.coverage = 12.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  const auto result = run_pipeline(ref, reads, test_config());
  const auto eval = evaluate_calls(result.calls, catalog);

  EXPECT_GT(eval.recall(), 0.85) << "tp=" << eval.tp << " fn=" << eval.fn;
  EXPECT_GT(eval.precision(), 0.85) << "fp=" << eval.fp;
  EXPECT_GT(result.stats.reads_mapped, result.stats.reads_total * 8 / 10);
}

TEST(Pipeline, NoSnpsOnUnmutatedGenome) {
  const Genome ref = test_reference(40000);
  ReadSimOptions sim_options;
  sim_options.coverage = 10.0;
  const auto reads = strip_metadata(simulate_reads(ref, sim_options));
  const auto result = run_pipeline(ref, reads, test_config());
  // Background errors should essentially never reach the LRT cutoff.
  EXPECT_LE(result.calls.size(), 2u);
}

TEST(Pipeline, ThreadedMatchesSerialCalls) {
  const Genome ref = test_reference(30000);
  CatalogGenOptions catalog_options;
  catalog_options.count = 15;
  const auto catalog = generate_catalog(ref, catalog_options);
  const Genome individual = apply_catalog(ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 10.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  PipelineConfig serial = test_config();
  PipelineConfig threaded = test_config();
  threaded.threads = 4;
  const auto serial_result = run_pipeline(ref, reads, serial);
  const auto threaded_result = run_pipeline(ref, reads, threaded);

  // NORM accumulation is commutative up to float rounding; the call sets
  // must agree.
  std::set<std::uint64_t> serial_positions, threaded_positions;
  for (const auto& call : serial_result.calls) {
    serial_positions.insert(call.position);
  }
  for (const auto& call : threaded_result.calls) {
    threaded_positions.insert(call.position);
  }
  EXPECT_EQ(serial_positions, threaded_positions);
}

TEST(Pipeline, ThreadedCharDiscRecoversDespiteOrderSensitivity) {
  // CHARDISC adds do not commute exactly (each add requantizes), so a
  // threaded run is not bit-identical to serial — but the calls must still
  // be accurate.  This guards the accumulate-under-lock path for the
  // discretized layouts.
  const Genome ref = test_reference(30000);
  CatalogGenOptions catalog_options;
  catalog_options.count = 15;
  const auto catalog = generate_catalog(ref, catalog_options);
  const Genome individual = apply_catalog(ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 12.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  PipelineConfig config = test_config();
  config.accum_kind = AccumKind::kCharDisc;
  config.threads = 4;
  const auto result = run_pipeline(ref, reads, config);
  const auto eval = evaluate_calls(result.calls, catalog);
  EXPECT_GT(eval.recall(), 0.8);
  EXPECT_GT(eval.precision(), 0.85);
}

TEST(Pipeline, FdrModeCallsSnps) {
  const Genome ref = test_reference(40000);
  CatalogGenOptions catalog_options;
  catalog_options.count = 20;
  const auto catalog = generate_catalog(ref, catalog_options);
  const Genome individual = apply_catalog(ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 12.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  PipelineConfig config = test_config();
  config.use_fdr = true;
  config.fdr_q = 0.05;
  const auto result = run_pipeline(ref, reads, config);
  const auto eval = evaluate_calls(result.calls, catalog);
  EXPECT_GT(eval.recall(), 0.8);
  EXPECT_GT(eval.precision(), 0.8);
}

TEST(Pipeline, RepeatRegionsStillCalled) {
  // The paper highlights sensitivity in repeat regions: a SNP inside a
  // 2-copy repeat should still be recoverable because reads split their
  // weight across both copies and the true copy accumulates more evidence.
  ReferenceGenOptions ref_options;
  ref_options.length = 50000;
  ref_options.repeat_fraction = 0.15;
  ref_options.repeat_block = 1500;
  ref_options.repeat_divergence = 0.03;
  ref_options.n_fraction = 0.0;
  const Genome ref = generate_reference(ref_options);

  CatalogGenOptions catalog_options;
  catalog_options.count = 25;
  const auto catalog = generate_catalog(ref, catalog_options);
  const Genome individual = apply_catalog(ref, catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = 14.0;
  const auto reads = strip_metadata(simulate_reads(individual, sim_options));

  const auto result = run_pipeline(ref, reads, test_config());
  const auto eval = evaluate_calls(result.calls, catalog);
  EXPECT_GT(eval.recall(), 0.7);
  EXPECT_GT(eval.precision(), 0.7);
}

// ---------------------------------------------------------------------------
// Diploid

TEST(Pipeline, DiploidRecoversHetSites) {
  const Genome ref = test_reference(60000);
  CatalogGenOptions catalog_options;
  catalog_options.count = 30;
  catalog_options.het_fraction = 0.5;
  const auto catalog = generate_catalog(ref, catalog_options);
  const auto individual = apply_catalog_diploid(ref, catalog);

  ReadSimOptions sim_options;
  sim_options.coverage = 20.0;  // het sites need depth on both alleles
  const auto reads = strip_metadata(
      simulate_reads_diploid(individual.hap1, individual.hap2, sim_options));

  PipelineConfig config = test_config();
  config.ploidy = Ploidy::kDiploid;
  const auto result = run_pipeline(ref, reads, config);
  const auto eval = evaluate_calls(result.calls, catalog);
  EXPECT_GT(eval.recall(), 0.75) << "tp=" << eval.tp << " fn=" << eval.fn;
  EXPECT_GT(eval.precision(), 0.8) << "fp=" << eval.fp;

  // Het truth sites that were called should be genotyped heterozygous
  // (ref allele + alt allele) most of the time.
  int het_called = 0, het_correct = 0;
  for (const auto& call : result.calls) {
    for (const auto& entry : catalog) {
      if (entry.position == call.position &&
          entry.zygosity == Zygosity::kHet) {
        ++het_called;
        const bool has_alt =
            call.allele1 == entry.alt || call.allele2 == entry.alt;
        const bool has_ref =
            call.allele1 == entry.ref || call.allele2 == entry.ref;
        if (has_alt && has_ref) ++het_correct;
      }
    }
  }
  if (het_called > 0) {
    EXPECT_GT(static_cast<double>(het_correct) / het_called, 0.7);
  }
}

// ---------------------------------------------------------------------------
// SNP caller unit behaviour

TEST(SnpCaller, RequiresMinimumCoverage) {
  Genome g;
  g.add_contig("chr1", "ACGTACGTACGT");
  auto accum = make_accumulator(AccumKind::kNorm, 0, g.padded_size());
  // Strong non-reference signal but below min_coverage.
  accum->add(5, {2.0f, 0, 0, 0, 0});  // position 5 is C in the reference

  PipelineConfig config = test_config();
  config.min_coverage = 3.0;
  EXPECT_TRUE(call_snps(g, *accum, config).empty());

  accum->add(5, {2.0f, 0, 0, 0, 0});
  accum->add(5, {2.0f, 0, 0, 0, 0});
  const auto calls = call_snps(g, *accum, config);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].position, 5u);
  EXPECT_EQ(calls[0].allele1, encode_base('A'));
}

TEST(SnpCaller, IgnoresMatchingReference) {
  Genome g;
  g.add_contig("chr1", "ACGTACGTACGT");
  auto accum = make_accumulator(AccumKind::kNorm, 0, g.padded_size());
  for (int i = 0; i < 20; ++i) accum->add(0, {1.0f, 0, 0, 0, 0});  // ref A
  EXPECT_TRUE(call_snps(g, *accum, test_config()).empty());
}

TEST(SnpCaller, AlphaControlsCalls) {
  Genome g;
  g.add_contig("chr1", "ACGTACGTACGT");
  auto accum = make_accumulator(AccumKind::kNorm, 0, g.padded_size());
  // Borderline signal: 5 reads of G at an A position.
  for (int i = 0; i < 5; ++i) accum->add(0, {0, 0, 1.0f, 0, 0});

  PipelineConfig loose = test_config();
  loose.alpha = 0.05;
  PipelineConfig strict = test_config();
  strict.alpha = 1e-12;
  EXPECT_EQ(call_snps(g, *accum, loose).size(), 1u);
  EXPECT_TRUE(call_snps(g, *accum, strict).empty());
}

TEST(SnpCaller, RangeRestriction) {
  Genome g;
  g.add_contig("chr1", "AAAAAAAAAAAA");
  auto accum = make_accumulator(AccumKind::kNorm, 0, g.padded_size());
  for (int i = 0; i < 10; ++i) {
    accum->add(2, {0, 0, 1.0f, 0, 0});
    accum->add(8, {0, 0, 1.0f, 0, 0});
  }
  const PipelineConfig config = test_config();
  EXPECT_EQ(call_snps(g, *accum, config).size(), 2u);
  const auto first_half = call_snps(g, *accum, config, 0, 5);
  ASSERT_EQ(first_half.size(), 1u);
  EXPECT_EQ(first_half[0].position, 2u);
}

/// call_snps as a scan of every position of [begin, end), the way it ran
/// before it visited only resident pages.
std::vector<SnpCall> full_scan_calls(const Genome& g, const Accumulator& accum,
                                     const PipelineConfig& config,
                                     GenomePos begin, GenomePos end) {
  std::vector<SnpCall> candidates;
  for (GenomePos pos = begin; pos < end; ++pos) {
    const std::uint8_t ref = g.at(pos);
    if (ref >= 4 || !g.in_contig(pos)) continue;
    const TrackVector counts = accum.counts(pos);
    TrackCounts z;
    double n = 0.0;
    for (std::size_t k = 0; k < z.size(); ++k) {
      z[k] = static_cast<double>(counts[k]);
      n += z[k];
    }
    if (n <= 0.0 || n < config.min_coverage) continue;
    const LrtResult lrt = lrt_test(z, config.ploidy);
    if (lrt.allele1 == ref && lrt.allele2 == ref) continue;
    const ContigCoord coord = g.resolve(pos);
    candidates.push_back({g.contig_name(coord.contig_id), coord.offset, ref,
                          lrt.allele1, lrt.allele2, n, lrt.statistic,
                          lrt.p_adjusted});
  }
  std::vector<double> p_values;
  for (const auto& call : candidates) p_values.push_back(call.p_value);
  const auto keep = benjamini_hochberg(p_values, config.fdr_q);
  std::vector<SnpCall> calls;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (config.use_fdr ? keep[i] : candidates[i].p_value < config.alpha) {
      calls.push_back(candidates[i]);
    }
  }
  return calls;
}

void expect_same_calls(const std::vector<SnpCall>& a,
                       const std::vector<SnpCall>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].contig, b[i].contig);
    EXPECT_EQ(a[i].position, b[i].position);
    EXPECT_EQ(a[i].ref, b[i].ref);
    EXPECT_EQ(a[i].allele1, b[i].allele1);
    EXPECT_EQ(a[i].allele2, b[i].allele2);
    EXPECT_EQ(a[i].coverage, b[i].coverage);
    EXPECT_EQ(a[i].lrt_stat, b[i].lrt_stat);
    EXPECT_EQ(a[i].p_value, b[i].p_value);
  }
}

/// A three-contig genome spanning several accumulator pages, with an N run.
Genome paged_test_genome() {
  Genome g;
  Rng rng(43);
  for (const auto* name : {"chrA", "chrB", "chrC"}) {
    std::string seq(3 * Accumulator::kPagePositions + 501, 'A');
    for (auto& c : seq) c = "ACGT"[rng.next_below(4)];
    std::fill(seq.begin() + 900, seq.begin() + 950, 'N');
    g.add_contig(name, seq);
  }
  return g;
}

TEST(SnpCaller, ResidentScanMatchesFullScan) {
  const Genome g = paged_test_genome();
  Rng rng(47);
  for (const auto kind :
       {AccumKind::kNorm, AccumKind::kCharDisc, AccumKind::kCentDisc}) {
    auto accum = make_accumulator(kind, 0, g.padded_size());
    // Evidence in a few clusters (one across a contig join, one on a page
    // boundary, one over the N run); most pages stay untouched.
    const std::uint64_t contig_b = g.global_pos(1, 0);
    for (const std::uint64_t centre :
         {contig_b, std::uint64_t{2} * Accumulator::kPagePositions,
          std::uint64_t{920}, g.padded_size() - 40}) {
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t pos = centre + rng.next_below(120) - 60;
        TrackVector delta{};
        delta[rng.next_below(rng.next_below(4) == 0 ? 5 : 2)] =
            static_cast<float>(rng.next_double()) + 0.5f;
        accum->add(pos, delta);
      }
      for (std::uint64_t snp = centre - 50; snp < centre + 50; snp += 3) {
        TrackVector alt{};
        alt[(g.at(snp) + 1) % 4] = 12.0f;
        accum->add(snp, alt);
      }
    }
    ASSERT_LT(accum->memory_bytes(),
              g.padded_size() * static_cast<std::uint64_t>(
                                    accum->bytes_per_position()));
    for (const double min_coverage : {0.0, 3.0}) {
      for (const bool fdr : {false, true}) {
        PipelineConfig config = test_config();
        config.min_coverage = min_coverage;
        config.use_fdr = fdr;
        config.alpha = 1e-3;
        const auto calls = call_snps(g, *accum, config);
        EXPECT_FALSE(calls.empty());
        expect_same_calls(calls,
                          full_scan_calls(g, *accum, config, 0,
                                          g.padded_size()));
        expect_same_calls(
            call_snps(g, *accum, config, contig_b - 30, contig_b + 5000),
            full_scan_calls(g, *accum, config, contig_b - 30,
                            contig_b + 5000));
      }
    }
  }
}

TEST(SnpCaller, ZeroMinCoverageNeverTestsEmptyPositions) {
  // Moderate evidence at a few sites: significant among a handful of
  // tests, but not if every empty position of the genome joined the BH
  // ranking with p = 1.
  const Genome g = test_reference(60000);
  auto accum = make_accumulator(AccumKind::kNorm, 0, g.padded_size());
  for (std::uint64_t site = 0; site < 8; ++site) {
    const std::uint64_t pos = 5000 + site * 6000;
    const std::uint8_t alt = static_cast<std::uint8_t>((g.at(pos) + 1) % 4);
    TrackVector z{};
    z[g.at(pos)] = 1.0f;
    z[alt] = 6.0f + static_cast<float>(site) * 0.25f;  // p ~ 1e-3 .. 1e-4
    accum->add(pos, z);
  }
  PipelineConfig config = test_config();
  config.use_fdr = true;
  config.fdr_q = 0.05;
  config.min_coverage = 1e-9;
  const auto reference_calls = call_snps(g, *accum, config);
  EXPECT_FALSE(reference_calls.empty());
  config.min_coverage = 0.0;
  expect_same_calls(call_snps(g, *accum, config), reference_calls);
}

TEST(MappingSession, RejectsNegativeOrNanMinCoverage) {
  const Genome g = test_reference(5000);
  PipelineConfig config = test_config();
  config.min_coverage = -1.0;
  EXPECT_THROW(MappingSession(g, config), ConfigError);
  config.min_coverage = std::nan("");
  EXPECT_THROW(MappingSession(g, config), ConfigError);
  EXPECT_THROW(checked_min_coverage(-1e-9), ConfigError);
  EXPECT_EQ(checked_min_coverage(0.0), 0.0);
}

TEST(MappingSession, AmpliconRunHoldsOnlyTouchedPages) {
  // 30 reads on a 200 bp amplicon of a 2 Mbp genome.
  const Genome g = test_reference(2'000'000);
  const PipelineConfig config = test_config();
  const MappingSession session(g, config);
  const std::uint64_t amplicon = 1'234'567;
  std::vector<Read> reads;
  for (std::uint64_t i = 0; i < 30; ++i) {
    Read read;
    read.name = "amp" + std::to_string(i);
    for (std::uint64_t j = 0; j < 100; ++j) {
      read.bases.push_back(g.at(amplicon + (i * 97) % 100 + j));
    }
    read.quals.assign(read.bases.size(), 30);
    reads.push_back(std::move(read));
  }
  VectorReadStream stream(reads, config.stream_batch);
  const PipelineResult result = session.run(stream);
  EXPECT_EQ(result.stats.reads_mapped, 30u);
  const std::uint64_t dense_bytes = g.padded_size() * 20;  // NORM
  EXPECT_GT(result.accum_memory_bytes, 0u);
  EXPECT_LE(result.accum_memory_bytes * 20, dense_bytes);
}

// ---------------------------------------------------------------------------
// Evaluation

TEST(Evaluation, CountsCorrectly) {
  SnpCatalog truth;
  truth.push_back({"chr1", 10, 0, 2, Zygosity::kHom});
  truth.push_back({"chr1", 20, 1, 3, Zygosity::kHom});

  std::vector<SnpCall> calls(2);
  calls[0].contig = "chr1";
  calls[0].position = 10;
  calls[0].allele1 = calls[0].allele2 = 2;  // correct
  calls[1].contig = "chr1";
  calls[1].position = 99;
  calls[1].allele1 = calls[1].allele2 = 1;  // FP

  const auto eval = evaluate_calls(calls, truth);
  EXPECT_EQ(eval.tp, 1u);
  EXPECT_EQ(eval.fp, 1u);
  EXPECT_EQ(eval.fn, 1u);
  EXPECT_DOUBLE_EQ(eval.precision(), 0.5);
  EXPECT_DOUBLE_EQ(eval.recall(), 0.5);
}

TEST(Evaluation, AlleleMismatchIsFalsePositive) {
  SnpCatalog truth;
  truth.push_back({"chr1", 10, 0, 2, Zygosity::kHom});
  std::vector<SnpCall> calls(1);
  calls[0].contig = "chr1";
  calls[0].position = 10;
  calls[0].allele1 = calls[0].allele2 = 3;  // wrong alt
  auto eval = evaluate_calls(calls, truth, /*require_allele_match=*/true);
  EXPECT_EQ(eval.tp, 0u);
  EXPECT_EQ(eval.fp, 1u);
  eval = evaluate_calls(calls, truth, /*require_allele_match=*/false);
  EXPECT_EQ(eval.tp, 1u);
}

TEST(Evaluation, DuplicateCallsCountOnce) {
  SnpCatalog truth;
  truth.push_back({"chr1", 10, 0, 2, Zygosity::kHom});
  std::vector<SnpCall> calls(2);
  for (auto& call : calls) {
    call.contig = "chr1";
    call.position = 10;
    call.allele1 = call.allele2 = 2;
  }
  const auto eval = evaluate_calls(calls, truth);
  EXPECT_EQ(eval.tp, 1u);
  EXPECT_EQ(eval.fn, 0u);
}

}  // namespace
}  // namespace gnumap
