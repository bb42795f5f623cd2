// Batched SIMD Pair-HMM engine vs the scalar oracle.
//
// The contract under test (see docs/KERNELS.md and batched.hpp): at every
// dispatch level the batched engine reproduces PairHmm::align *bit for bit* —
// same matrices, same log-likelihood, same ok/fail verdict — because every
// lane performs the scalar kernel's operations in the scalar kernel's order.
// The suite therefore asserts exact double equality for the scalar level and
// (belt and braces, in case a future backend ever relaxes the contract)
// 1e-9-relative agreement of posteriors at every level, in both boundary
// modes, plus degenerate shapes, workspace reuse, and dispatch resolution.
// The forward-only entry and subset drains the mapper decides and condenses
// with are held to run() and to the oracle the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "gnumap/core/read_mapper.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/phmm/forward_backward.hpp"
#include "gnumap/phmm/marginal.hpp"
#include "gnumap/phmm/params.hpp"
#include "gnumap/phmm/pwm.hpp"
#include "gnumap/util/rng.hpp"

namespace gnumap {
namespace {

using phmm::BatchedForward;
using phmm::SimdLevel;

Read make_read(const std::string& seq, std::uint8_t qual = 35) {
  Read read;
  read.name = "r";
  read.bases = encode_sequence(seq);
  read.quals.assign(read.bases.size(), qual);
  return read;
}

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back("ACGT"[rng.next_below(4)]);
  }
  return s;
}

/// One randomized alignment problem: a window and a read sampled from it
/// with mismatches, so most (not all) tasks have plausible alignments.
struct Problem {
  std::vector<std::uint8_t> window;
  Pwm pwm;
};

Problem make_problem(Rng& rng, std::size_t read_len, std::size_t window_len) {
  Problem p;
  const std::string win_seq = random_seq(rng, window_len);
  p.window = encode_sequence(win_seq);
  std::string read_seq;
  if (read_len <= window_len) {
    const std::size_t offset = rng.next_below(window_len - read_len + 1);
    read_seq = win_seq.substr(offset, read_len);
  } else {
    read_seq = random_seq(rng, read_len);  // read overhangs the window
  }
  for (char& ch : read_seq) {
    if (rng.bernoulli(0.08)) ch = "ACGT"[rng.next_below(4)];
  }
  p.pwm = Pwm::from_read(make_read(read_seq));
  return p;
}

std::vector<Problem> random_problems(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Problem> problems;
  problems.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // A spread of shapes so packs mix full and partial lane occupancy.
    const std::size_t read_len = 8 + rng.next_below(40);
    const std::size_t window_len = read_len + rng.next_below(24);
    problems.push_back(make_problem(rng, read_len, window_len));
  }
  return problems;
}

void expect_matrices_bitwise_equal(const AlignmentMatrices& a,
                                   const AlignmentMatrices& b) {
  ASSERT_EQ(a.n, b.n);
  ASSERT_EQ(a.m, b.m);
  const std::size_t cells = (a.n + 1) * (a.m + 1);
  const std::pair<const std::vector<double>*, const std::vector<double>*>
      mats[] = {{&a.fm, &b.fm},   {&a.fgx, &b.fgx}, {&a.fgy, &b.fgy},
                {&a.bm, &b.bm},   {&a.bgx, &b.bgx}, {&a.bgy, &b.bgy}};
  for (const auto& [ma, mb] : mats) {
    for (std::size_t c = 0; c < cells; ++c) {
      ASSERT_EQ((*ma)[c], (*mb)[c]) << "cell " << c;
    }
  }
}

/// Runs `problems` through both engines at `level` and checks agreement.
/// `bitwise` additionally demands exact equality (the kernels are built to
/// deliver it at every level; posteriors get a tolerance fallback so a
/// hypothetical future backend with a documented tolerance still has a
/// meaningful test to loosen).
void check_equivalence(const std::vector<Problem>& problems, BoundaryMode mode,
                       SimdLevel level, bool bitwise) {
  const PhmmParams params;
  const PairHmm oracle(params, mode);
  BatchedForward batch(params, mode, level);
  for (std::size_t t = 0; t < problems.size(); ++t) {
    batch.add(problems[t].pwm, problems[t].window, t);
  }
  batch.run();
  ASSERT_EQ(batch.size(), problems.size());

  AlignmentMatrices expected;
  std::size_t ok_count = 0;
  for (std::size_t t = 0; t < problems.size(); ++t) {
    const bool expect_ok =
        oracle.align(problems[t].pwm, problems[t].window, expected);
    const auto& outcome = batch.outcome(t);
    ASSERT_EQ(outcome.ok, expect_ok) << "task " << t;
    ASSERT_EQ(outcome.tag, t);
    if (!expect_ok) continue;
    ++ok_count;

    const AlignmentMatrices& actual = batch.matrices(t);
    if (bitwise) {
      ASSERT_EQ(outcome.log_likelihood, expected.log_likelihood)
          << "task " << t;
      expect_matrices_bitwise_equal(expected, actual);
    } else {
      ASSERT_NEAR(outcome.log_likelihood, expected.log_likelihood,
                  1e-9 * std::abs(expected.log_likelihood));
    }

    // Posteriors within 1e-9 relative at every level (the issue's stated
    // tolerance; bitwise mode makes it trivially true today).
    const auto exp_mass = oracle.row_masses(expected);
    const auto act_mass = oracle.row_masses(actual);
    ASSERT_EQ(exp_mass.size(), act_mass.size());
    for (std::size_t i = 1; i < exp_mass.size(); ++i) {
      ASSERT_NEAR(act_mass[i], exp_mass[i], 1e-9 * std::abs(exp_mass[i]))
          << "task " << t << " row " << i;
    }
  }
  // The generator is tuned so the suite exercises real alignments, not a
  // pile of trivially failed ones.
  ASSERT_GT(ok_count, problems.size() / 2);
}

std::vector<SimdLevel> levels_to_test() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (phmm::max_supported_simd_level() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (phmm::max_supported_simd_level() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

TEST(PhmmBatched, MatchesScalarOracleAllLevelsSemiGlobal) {
  const auto problems = random_problems(0xB10C5EED, 64);
  for (const SimdLevel level : levels_to_test()) {
    SCOPED_TRACE(phmm::simd_level_name(level));
    check_equivalence(problems, BoundaryMode::kSemiGlobal, level,
                      /*bitwise=*/true);
  }
}

TEST(PhmmBatched, MatchesScalarOracleAllLevelsGlobal) {
  const auto problems = random_problems(0x610BA1F00D, 64);
  for (const SimdLevel level : levels_to_test()) {
    SCOPED_TRACE(phmm::simd_level_name(level));
    check_equivalence(problems, BoundaryMode::kGlobal, level,
                      /*bitwise=*/true);
  }
}

TEST(PhmmBatched, IdenticalShapesFillFullPacks) {
  // All tasks share one (n, m) shape, so the AVX2 path runs 4 live lanes.
  Rng rng(77);
  std::vector<Problem> problems;
  for (int i = 0; i < 13; ++i) problems.push_back(make_problem(rng, 24, 40));
  for (const SimdLevel level : levels_to_test()) {
    SCOPED_TRACE(phmm::simd_level_name(level));
    check_equivalence(problems, BoundaryMode::kSemiGlobal, level,
                      /*bitwise=*/true);
  }
}

TEST(PhmmBatched, LengthBinnedMaskedPacksMatchOracleBitwise) {
  // Shapes within the default bin slack of each other but (mostly) not
  // identical, so nearly every pack is a masked mixed-shape pack.  The
  // masking arithmetic is exact, so results must still be bit-identical to
  // the scalar oracle at every level in both boundary modes.
  Rng rng(0xB17B17);
  std::vector<Problem> problems;
  for (int i = 0; i < 24; ++i) {
    const std::size_t read_len = 30 + rng.next_below(8);
    const std::size_t window_len = read_len + 10 + rng.next_below(6);
    problems.push_back(make_problem(rng, read_len, window_len));
  }
  for (const BoundaryMode mode :
       {BoundaryMode::kSemiGlobal, BoundaryMode::kGlobal}) {
    for (const SimdLevel level : levels_to_test()) {
      SCOPED_TRACE(std::string(phmm::simd_level_name(level)) +
                   (mode == BoundaryMode::kGlobal ? "/global" : "/semi"));
      check_equivalence(problems, mode, level, /*bitwise=*/true);
    }
  }
}

TEST(PhmmBatched, BinSlackControlsPacking) {
  // Mixed read lengths: binning merges nearby shapes into shared packs, so
  // fewer padding lanes are swept; slack 0 restores identical-shapes-only
  // packing.  Both settings are bit-identical to the oracle (asserted
  // above), so the observable difference is the occupancy accounting.
  Rng rng(4242);
  std::vector<Problem> problems;
  for (int i = 0; i < 32; ++i) {
    const std::size_t read_len = 36 + rng.next_below(12);
    problems.push_back(make_problem(rng, read_len, read_len + 20));
  }
  const PhmmParams params;
  const SimdLevel level = phmm::max_supported_simd_level();
  auto run_with_slack = [&](std::size_t slack) {
    BatchedForward batch(
        params, BoundaryMode::kSemiGlobal,
        phmm::EngineOptions{.simd = level, .bin_slack = slack});
    EXPECT_EQ(batch.bin_slack(), slack);
    for (const auto& p : problems) batch.add(p.pwm, p.window);
    batch.run();
    return batch.timings();
  };
  const auto binned = run_with_slack(phmm::kDefaultBinSlack);
  const auto unbinned = run_with_slack(0);
  // Useful cells are a property of the tasks, not the packing.
  EXPECT_EQ(binned.cells, unbinned.cells);
  EXPECT_GE(binned.swept_cells, binned.cells);
  EXPECT_GE(unbinned.swept_cells, unbinned.cells);
  if (level != SimdLevel::kScalar) {
    EXPECT_LT(binned.swept_cells, unbinned.swept_cells);
  }
}

TEST(PhmmBatched, PrecisionResolution) {
  using phmm::Precision;
  // Explicit requests pass through untouched.
  EXPECT_EQ(phmm::resolve_precision(Precision::kDouble), Precision::kDouble);
  EXPECT_EQ(phmm::resolve_precision(Precision::kSingle), Precision::kSingle);
  // GNUMAP_PHMM_FP32 drives kAuto: truthy values opt in, everything else
  // (including unset and typos) keeps the exact default path.
  ::unsetenv("GNUMAP_PHMM_FP32");
  EXPECT_EQ(phmm::resolve_precision(), Precision::kDouble);
  ::setenv("GNUMAP_PHMM_FP32", "1", 1);
  EXPECT_EQ(phmm::resolve_precision(), Precision::kSingle);
  ::setenv("GNUMAP_PHMM_FP32", "TRUE", 1);
  EXPECT_EQ(phmm::resolve_precision(), Precision::kSingle);
  ::setenv("GNUMAP_PHMM_FP32", "0", 1);
  EXPECT_EQ(phmm::resolve_precision(), Precision::kDouble);
  ::setenv("GNUMAP_PHMM_FP32", "bogus", 1);
  EXPECT_EQ(phmm::resolve_precision(), Precision::kDouble);
  ::setenv("GNUMAP_PHMM_FP32", "1", 1);
  EXPECT_EQ(phmm::resolve_precision(Precision::kDouble), Precision::kDouble);
  ::unsetenv("GNUMAP_PHMM_FP32");
}

TEST(PhmmBatched, DegenerateShapes) {
  const PhmmParams params;
  const Pwm empty_pwm;
  const Pwm real_pwm = Pwm::from_read(make_read("ACGTACGT"));
  const std::vector<std::uint8_t> empty_window;
  const std::vector<std::uint8_t> window = encode_sequence("ACGTACGTACGT");
  const std::vector<std::uint8_t> tiny_window = encode_sequence("AC");

  BatchedForward batch(params, BoundaryMode::kSemiGlobal, SimdLevel::kAuto);
  const auto empty_win_task = batch.add(real_pwm, empty_window, 1);
  const auto empty_pwm_task = batch.add(empty_pwm, window, 2);
  const auto overhang_task = batch.add(real_pwm, tiny_window, 3);
  const auto normal_task = batch.add(real_pwm, window, 4);
  batch.run();

  // Degenerate tasks fail exactly like a scalar align on the same inputs...
  for (const auto task : {empty_win_task, empty_pwm_task}) {
    EXPECT_FALSE(batch.outcome(task).ok);
    EXPECT_TRUE(std::isinf(batch.outcome(task).log_likelihood));
  }
  // ...and do not disturb their batch-mates.  A read longer than its window
  // is not degenerate — the scalar kernel decides whether it aligns.
  const PairHmm oracle(params, BoundaryMode::kSemiGlobal);
  AlignmentMatrices expected;
  EXPECT_EQ(batch.outcome(overhang_task).ok,
            oracle.align(real_pwm, tiny_window, expected));
  ASSERT_TRUE(batch.outcome(normal_task).ok);
  ASSERT_TRUE(oracle.align(real_pwm, window, expected));
  EXPECT_EQ(batch.outcome(normal_task).log_likelihood,
            expected.log_likelihood);
  expect_matrices_bitwise_equal(expected, batch.matrices(normal_task));
}

TEST(PhmmBatched, EngineReuseKeepsResultsExact) {
  // Recycle one engine across batches of shrinking then growing shapes; the
  // capacity-retention path must never leak state between batches.
  const PhmmParams params;
  const PairHmm oracle(params, BoundaryMode::kSemiGlobal);
  BatchedForward batch(params, BoundaryMode::kSemiGlobal, SimdLevel::kAuto);
  Rng rng(991);
  AlignmentMatrices expected;
  for (const std::size_t read_len : {40UL, 12UL, 28UL, 60UL, 8UL}) {
    batch.clear();
    std::vector<Problem> problems;
    for (int i = 0; i < 9; ++i) {
      problems.push_back(make_problem(rng, read_len, read_len + 16));
    }
    for (const auto& p : problems) batch.add(p.pwm, p.window);
    batch.run();
    for (std::size_t t = 0; t < problems.size(); ++t) {
      const bool expect_ok =
          oracle.align(problems[t].pwm, problems[t].window, expected);
      ASSERT_EQ(batch.outcome(t).ok, expect_ok);
      if (expect_ok) expect_matrices_bitwise_equal(expected, batch.matrices(t));
    }
  }
}

TEST(PhmmBatched, DrainModeMatchesOracleBitwise) {
  // run(consume) recycles a pool of pack-wide matrices instead of
  // materializing every task; each task must still be bit-identical to the
  // oracle at the moment it is drained, every task must drain exactly once,
  // and degenerate tasks must drain like failed aligns.
  auto problems = random_problems(0xD2A117, 48);
  problems.push_back(Problem{});  // degenerate: empty pwm and window
  const PhmmParams params;
  for (const SimdLevel level : levels_to_test()) {
    SCOPED_TRACE(phmm::simd_level_name(level));
    const PairHmm oracle(params, BoundaryMode::kSemiGlobal);
    BatchedForward batch(params, BoundaryMode::kSemiGlobal, level);
    for (std::size_t t = 0; t < problems.size(); ++t) {
      batch.add(problems[t].pwm, problems[t].window, t);
    }
    std::vector<unsigned char> seen(problems.size(), 0);
    AlignmentMatrices expected;
    batch.run([&](std::size_t t) {
      ASSERT_LT(t, problems.size());
      EXPECT_EQ(seen[t], 0) << "task " << t << " drained twice";
      seen[t] = 1;
      const bool expect_ok =
          oracle.align(problems[t].pwm, problems[t].window, expected);
      ASSERT_EQ(batch.outcome(t).ok, expect_ok) << "task " << t;
      if (!expect_ok) return;
      EXPECT_EQ(batch.outcome(t).log_likelihood, expected.log_likelihood);
      expect_matrices_bitwise_equal(expected, batch.matrices(t));
    });
    for (std::size_t t = 0; t < problems.size(); ++t) {
      EXPECT_EQ(seen[t], 1) << "task " << t << " never drained";
      // Outcomes outlive the drain; pooled matrices do not.
      EXPECT_EQ(batch.outcome(t).tag, t);
    }
  }
}

/// A task no alignment path can explain in global mode: an all-zero PWM
/// has no match emissions, and global paths may not skip read bases at the
/// window's left edge, so the forward sweep ends with zero mass.
Problem failing_global_problem(std::size_t read_len, std::size_t window_len) {
  Rng rng(read_len * 131 + window_len);
  Problem p;
  p.window = encode_sequence(random_seq(rng, window_len));
  p.pwm = Pwm::from_rows(
      std::vector<std::array<float, 4>>(read_len, {0, 0, 0, 0}));
  return p;
}

TEST(PhmmBatched, ForwardOnlyOutcomesMatchFullRunBitwise) {
  // run_forward() fills outcome(task) from the forward sweep alone; its
  // log-likelihood bits and ok verdict must equal run()'s for every task,
  // at every level and both precisions, in uniform packs (identical
  // shapes, including a partial pack with padding lanes) and masked packs
  // (binned nearby shapes), with degenerate and failed tasks mixed in.
  Rng rng(0xF0A4D);
  std::vector<Problem> uniform;
  for (int i = 0; i < 19; ++i) uniform.push_back(make_problem(rng, 30, 46));
  std::vector<Problem> masked;
  for (int i = 0; i < 21; ++i) {
    const std::size_t read_len = 30 + rng.next_below(8);
    const std::size_t window_len = read_len + 10 + rng.next_below(6);
    masked.push_back(make_problem(rng, read_len, window_len));
  }
  for (auto* problems : {&uniform, &masked}) {
    problems->push_back(Problem{});  // degenerate: empty pwm and window
    problems->push_back(failing_global_problem(30, 46));
    problems->push_back(failing_global_problem(33, 47));
  }

  const PhmmParams params;
  for (const BoundaryMode mode :
       {BoundaryMode::kSemiGlobal, BoundaryMode::kGlobal}) {
    for (const phmm::Precision precision :
         {phmm::Precision::kDouble, phmm::Precision::kSingle}) {
      for (const SimdLevel level : levels_to_test()) {
        for (const auto* problems : {&uniform, &masked}) {
          SCOPED_TRACE(std::string(phmm::simd_level_name(level)) + "/" +
                       phmm::precision_name(precision) +
                       (mode == BoundaryMode::kGlobal ? "/global" : "/semi") +
                       (problems == &uniform ? "/uniform" : "/masked"));
          const phmm::EngineOptions options{.simd = level,
                                            .precision = precision};
          BatchedForward full(params, mode, options);
          BatchedForward forward(params, mode, options);
          for (std::size_t t = 0; t < problems->size(); ++t) {
            full.add((*problems)[t].pwm, (*problems)[t].window, t);
            forward.add((*problems)[t].pwm, (*problems)[t].window, t);
          }
          full.run();
          forward.run_forward();
          std::size_t failed = 0;
          for (std::size_t t = 0; t < problems->size(); ++t) {
            const auto& want = full.outcome(t);
            const auto& got = forward.outcome(t);
            EXPECT_EQ(got.tag, t);
            EXPECT_EQ(got.ok, want.ok) << "task " << t;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.log_likelihood),
                      std::bit_cast<std::uint64_t>(want.log_likelihood))
                << "task " << t;
            failed += want.ok ? 0 : 1;
          }
          // The degenerate task always fails; the zero-PWM tasks fail in
          // global mode.  Everything else aligns.
          EXPECT_EQ(failed, mode == BoundaryMode::kGlobal ? 3u : 1u);
          // Same packs, same cell accounting, no backward sweep.
          EXPECT_EQ(forward.timings().tasks, full.timings().tasks);
          EXPECT_EQ(forward.timings().cells, full.timings().cells);
          EXPECT_EQ(forward.timings().swept_cells, full.timings().swept_cells);
          EXPECT_EQ(forward.timings().backward_seconds, 0.0);
        }
      }
    }
  }
}

TEST(PhmmBatched, SubsetDrainAfterForwardOnlyMatchesOracle) {
  // The mapper's decide-then-condense sequence: run_forward() over every
  // task, then run(consume, tasks) over a subset.  Exactly the subset
  // drains, each drained task bit-identical to the oracle although it now
  // shares packs with different neighbours; the other tasks keep their
  // forward-pass outcomes, and timings cover both sweeps.
  auto problems = random_problems(0x5B5E7, 40);
  problems.push_back(Problem{});
  const PhmmParams params;
  const PairHmm oracle(params, BoundaryMode::kSemiGlobal);
  for (const SimdLevel level : levels_to_test()) {
    SCOPED_TRACE(phmm::simd_level_name(level));
    BatchedForward batch(params, BoundaryMode::kSemiGlobal, level);
    for (std::size_t t = 0; t < problems.size(); ++t) {
      batch.add(problems[t].pwm, problems[t].window, t);
    }
    batch.run_forward();
    std::vector<double> forward_ll(problems.size());
    std::vector<std::size_t> subset;
    for (std::size_t t = 0; t < problems.size(); ++t) {
      forward_ll[t] = batch.outcome(t).log_likelihood;
      if (t % 3 == 1 || t + 1 == problems.size()) subset.push_back(t);
    }
    const auto after_forward = batch.timings();

    std::vector<unsigned char> seen(problems.size(), 0);
    AlignmentMatrices expected;
    batch.run(
        [&](std::size_t t) {
          ASSERT_LT(t, problems.size());
          EXPECT_EQ(seen[t], 0) << "task " << t << " drained twice";
          seen[t] = 1;
          const bool expect_ok =
              oracle.align(problems[t].pwm, problems[t].window, expected);
          ASSERT_EQ(batch.outcome(t).ok, expect_ok) << "task " << t;
          if (!expect_ok) return;
          EXPECT_EQ(batch.outcome(t).log_likelihood, expected.log_likelihood);
          expect_matrices_bitwise_equal(expected, batch.matrices(t));
        },
        subset);
    for (std::size_t t = 0; t < problems.size(); ++t) {
      const bool in_subset =
          std::find(subset.begin(), subset.end(), t) != subset.end();
      EXPECT_EQ(seen[t], in_subset ? 1 : 0) << "task " << t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.outcome(t).log_likelihood),
                std::bit_cast<std::uint64_t>(forward_ll[t]))
          << "task " << t;
    }
    EXPECT_EQ(batch.timings().tasks, problems.size() + subset.size());
    EXPECT_GE(batch.timings().forward_seconds, after_forward.forward_seconds);
    EXPECT_EQ(after_forward.backward_seconds, 0.0);
  }
}

TEST(PhmmBatched, TimingsAccumulate) {
  const PhmmParams params;
  BatchedForward batch(params, BoundaryMode::kSemiGlobal, SimdLevel::kAuto);
  Rng rng(5);
  std::vector<Problem> problems;  // storage must outlive run()
  for (int i = 0; i < 8; ++i) problems.push_back(make_problem(rng, 30, 46));
  for (const auto& p : problems) batch.add(p.pwm, p.window);
  batch.run();
  const auto& t = batch.timings();
  EXPECT_EQ(t.tasks, 8u);
  EXPECT_EQ(t.cells, 8u * 31u * 47u);
  // Identical shapes and 8 % width == 0 at every level: packs are full, so
  // no padding cells are swept.
  EXPECT_EQ(t.swept_cells, 8u * 31u * 47u);
  EXPECT_GE(t.forward_seconds, 0.0);
  EXPECT_GE(t.backward_seconds, 0.0);
  batch.clear();
  EXPECT_EQ(batch.timings().tasks, 0u);
}

TEST(PhmmBatched, SimdLevelResolution) {
  const SimdLevel best = phmm::max_supported_simd_level();
  EXPECT_NE(best, SimdLevel::kAuto);
  // Explicit requests are clamped to the host, never rejected or raised.
  EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_LE(phmm::resolve_simd_level(SimdLevel::kAvx2), best);

  // GNUMAP_SIMD drives kAuto only; explicit requests win over it.
  ::setenv("GNUMAP_SIMD", "scalar", 1);
  EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kAuto), SimdLevel::kScalar);
  if (best >= SimdLevel::kSse2) {
    EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kSse2), SimdLevel::kSse2);
  }
  ::setenv("GNUMAP_SIMD", "AVX2", 1);  // case-insensitive
  EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kAuto),
            std::min(SimdLevel::kAvx2, best));
  ::setenv("GNUMAP_SIMD", "bogus", 1);  // unknown values are ignored
  EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kAuto), best);
  ::unsetenv("GNUMAP_SIMD");
  EXPECT_EQ(phmm::resolve_simd_level(SimdLevel::kAuto), best);
}

/// Runs score_reads over `reads` and checks it bit for bit against the
/// scalar double oracle (score_reads_raw + the shared finalize epilogue):
/// sites, weights, contributions, and statistics.  Returns the batched
/// call's stats; `ws` is left as the batched call left it.
MapStats expect_score_reads_match_oracle(const PipelineConfig& config,
                                         const ReadMapper& mapper,
                                         const std::vector<Read>& reads,
                                         MapperWorkspace& ws,
                                         GenomePos diagonal_begin = 0,
                                         GenomePos diagonal_end = 0) {
  MapperWorkspace serial_ws;
  MapStats serial_stats, batched_stats;
  std::vector<std::vector<ScoredSite>> serial;
  serial.reserve(reads.size());
  for (const Read& read : reads) {
    auto raw = mapper.score_reads_raw({&read, 1}, serial_ws, serial_stats,
                                      diagonal_begin, diagonal_end);
    std::vector<ScoredSite> sites;
    for (auto& candidate : raw.front()) {
      if (candidate.ok) sites.push_back(std::move(candidate.site));
    }
    finalize_scored_sites(config, read, sites, serial_stats);
    serial.push_back(std::move(sites));
  }
  const auto batched = mapper.score_reads(reads, ws, batched_stats,
                                          diagonal_begin, diagonal_end);

  EXPECT_EQ(batched.size(), serial.size());
  for (std::size_t r = 0; r < std::min(reads.size(), batched.size()); ++r) {
    EXPECT_EQ(batched[r].size(), serial[r].size()) << "read " << r;
    if (batched[r].size() != serial[r].size()) continue;
    for (std::size_t s = 0; s < serial[r].size(); ++s) {
      const ScoredSite& a = serial[r][s];
      const ScoredSite& b = batched[r][s];
      EXPECT_EQ(b.window_begin, a.window_begin);
      EXPECT_EQ(b.reverse, a.reverse);
      EXPECT_EQ(b.log_likelihood, a.log_likelihood) << "read " << r;
      EXPECT_EQ(b.weight, a.weight) << "read " << r;
      EXPECT_EQ(b.contributions.tracks, a.contributions.tracks)
          << "read " << r << " site " << s;
      EXPECT_EQ(b.contributions.column_mass, a.contributions.column_mass)
          << "read " << r << " site " << s;
    }
  }
  EXPECT_EQ(batched_stats.reads_total, serial_stats.reads_total);
  EXPECT_EQ(batched_stats.reads_mapped, serial_stats.reads_mapped);
  EXPECT_EQ(batched_stats.candidates_evaluated,
            serial_stats.candidates_evaluated);
  EXPECT_EQ(batched_stats.sites_accumulated, serial_stats.sites_accumulated);
  EXPECT_EQ(batched_stats.dp_cells, serial_stats.dp_cells);
  EXPECT_EQ(batched_stats.fp32_recomputed_reads,
            serial_stats.fp32_recomputed_reads);
  // Only the batched path records kernel time.
  EXPECT_GE(batched_stats.phmm_forward_seconds, 0.0);
  EXPECT_EQ(serial_stats.phmm_forward_seconds, 0.0);
  return batched_stats;
}

TEST(PhmmBatched, ScoreReadsMatchesScoreReadExactly) {
  // End-to-end: the mapper's batched entry point must reproduce the scalar
  // double oracle bit for bit.
  Rng rng(20260805);
  const std::string genome_seq = random_seq(rng, 4000);
  Genome genome;
  genome.add_contig("chr1", genome_seq);
  PipelineConfig config;
  const HashIndex index(genome, config.index);
  const ReadMapper mapper(genome, index, config);

  std::vector<Read> reads;
  for (int i = 0; i < 48; ++i) {
    const std::size_t len = 24 + rng.next_below(30);
    const std::size_t pos = rng.next_below(genome_seq.size() - len);
    std::string seq = genome_seq.substr(pos, len);
    for (char& ch : seq) {
      if (rng.bernoulli(0.03)) ch = "ACGT"[rng.next_below(4)];
    }
    reads.push_back(make_read(seq));
  }
  MapperWorkspace ws;
  expect_score_reads_match_oracle(config, mapper, reads, ws);
}

TEST(PhmmBatched, ScoreReadsPrunesRepeatsBeforeTheBackwardSweep) {
  // A genome of diverged copies of one repeat unit: every read seeds a
  // candidate in most copies, and the posterior prune drops nearly all of
  // them.  score_reads must still match the scalar oracle bit for bit —
  // over the whole genome and over a diagonal range, as genome-partition
  // ranks score — while running the backward sweep only for the sites
  // that survive the prune.
  Rng rng(0x5EED4E9);
  const std::string unit = random_seq(rng, 400);
  std::string genome_seq = random_seq(rng, 200);
  for (int copy = 0; copy < 10; ++copy) {
    std::string diverged = unit;
    for (char& ch : diverged) {
      if (rng.bernoulli(0.07)) ch = "ACGT"[rng.next_below(4)];
    }
    genome_seq += diverged + random_seq(rng, 60);
  }
  Genome genome;
  genome.add_contig("chr1", genome_seq);
  PipelineConfig config;
  config.phmm_precision = phmm::Precision::kDouble;
  const HashIndex index(genome, config.index);
  const ReadMapper mapper(genome, index, config);

  std::vector<Read> reads;
  for (int i = 0; i < 64; ++i) {
    const std::size_t len = 60 + rng.next_below(30);
    const std::size_t pos = 200 + rng.next_below(genome_seq.size() - 200 - len);
    std::string seq = genome_seq.substr(pos, len);
    for (char& ch : seq) {
      if (rng.bernoulli(0.01)) ch = "ACGT"[rng.next_below(4)];
    }
    reads.push_back(make_read(seq));
  }

  const auto quarter = static_cast<GenomePos>(genome_seq.size() / 4);
  const std::pair<GenomePos, GenomePos> ranges[] = {{0, 0},
                                                    {quarter, 3 * quarter}};
  for (const auto& [begin, end] : ranges) {
    SCOPED_TRACE("diagonals [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    MapperWorkspace ws;
    const MapStats stats =
        expect_score_reads_match_oracle(config, mapper, reads, ws, begin, end);
    // The planted repeats make the prune drop most candidates...
    ASSERT_GT(stats.sites_accumulated, 0u);
    EXPECT_LT(stats.sites_accumulated * 2, stats.candidates_evaluated);
    // ...and the engine swept every candidate forward once, then only the
    // surviving sites again; the backward sweep ran for those alone.
    EXPECT_EQ(ws.batch.timings().tasks,
              stats.candidates_evaluated + stats.sites_accumulated);
  }
}

}  // namespace
}  // namespace gnumap
