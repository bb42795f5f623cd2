// Integration tests for the GNUMAP-SNP core: read mapper, SNP caller, full
// plant-and-recover pipelines (monoploid and diploid), evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gnumap/core/evaluation.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"

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
