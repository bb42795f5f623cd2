// Ablation A: Pair-HMM kernel throughput (google-benchmark).
//
// Measures DP cells/second for the forward/backward marginal alignment, the
// Viterbi decoder, and the Needleman-Wunsch baseline across read lengths,
// plus the marginal condensation and the quantized accumulator adds.  These
// kernels dominate the pipeline's compute, so the Figure 4/5 rates trace
// back to these numbers.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/genome/sequence.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/phmm/forward_backward.hpp"
#include "gnumap/phmm/marginal.hpp"
#include "gnumap/phmm/nw.hpp"
#include "gnumap/phmm/viterbi.hpp"
#include "gnumap/util/rng.hpp"

namespace {

using namespace gnumap;

struct Fixture {
  Read read;
  std::vector<std::uint8_t> window;
  Pwm pwm;

  explicit Fixture(std::size_t read_len) {
    Rng rng(4242);
    std::string window_seq;
    const std::size_t window_len = read_len + 24;
    for (std::size_t j = 0; j < window_len; ++j) {
      window_seq += "ACGT"[rng.next_below(4)];
    }
    read.name = "bench";
    read.bases = encode_sequence(window_seq.substr(12, read_len));
    read.quals.assign(read_len, 35);
    // Sprinkle a few errors so the DP is not degenerate.
    for (std::size_t i = 0; i < read_len; i += 17) {
      read.bases[i] = static_cast<std::uint8_t>((read.bases[i] + 1) % 4);
    }
    window = encode_sequence(window_seq);
    pwm = Pwm::from_read(read);
  }

  std::size_t cells() const {
    return (read.length() + 1) * (window.size() + 1);
  }
};

void BM_ForwardBackward(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const PairHmm hmm((PhmmParams()));
  AlignmentMatrices mats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.align(fx.pwm, fx.window, mats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.cells()));
  state.counters["cells"] = static_cast<double>(fx.cells());
}
BENCHMARK(BM_ForwardBackward)->Arg(36)->Arg(62)->Arg(100)->Arg(150);

/// Shared harness for the batched benchmarks: drains a batch of fixtures
/// through the engine, accumulates kernel timings and cell counts across
/// iterations, and reports GCUPS (useful DP cells per kernel second / 1e9,
/// docs/KERNELS.md §9) plus lane occupancy (useful / swept cells).
/// Mirrors the numbers into the metrics registry so a --metrics-out export
/// carries the BENCH_phmm.json series under the shared schema.  With
/// `forward_only` the batch runs run_forward() instead of the drain, as the
/// mapper's all-candidate decision sweep does.
void run_batched(benchmark::State& state, const std::vector<Fixture>& fixtures,
                 phmm::SimdLevel level, phmm::Precision precision,
                 std::size_t bin_slack, const std::string& series,
                 bool forward_only = false) {
  phmm::BatchedForward batch((PhmmParams()), BoundaryMode::kSemiGlobal,
                             phmm::EngineOptions{.simd = level,
                                                 .precision = precision,
                                                 .bin_slack = bin_slack});
  // Drain mode, as the mapper uses it: each pack's matrices are recycled
  // from a hot pool and handed to the consumer — the analogue of the
  // scalar loop reusing one AlignmentMatrices.
  double sink = 0.0;
  const auto consume = [&](std::size_t task) {
    sink += batch.matrices(task).log_likelihood;
  };
  phmm::KernelTimings total;
  for (auto _ : state) {
    batch.clear();  // also resets timings: accumulate them per iteration
    for (const Fixture& fx : fixtures) batch.add(fx.pwm, fx.window);
    if (forward_only) {
      batch.run_forward();
      sink += batch.outcome(0).log_likelihood;
    } else {
      batch.run(consume);
    }
    total += batch.timings();
    benchmark::DoNotOptimize(sink);
  }
  const double kernel_seconds = total.forward_seconds + total.backward_seconds;
  const double gcups =
      kernel_seconds > 0.0
          ? static_cast<double>(total.cells) / kernel_seconds / 1e9
          : 0.0;
  const double occupancy =
      total.swept_cells > 0
          ? static_cast<double>(total.cells) /
                static_cast<double>(total.swept_cells)
          : 0.0;
  const std::string labels = "{" + series + "}";
  obs::registry()
      .gauge("gnumap_bench_phmm_forward_seconds" + labels,
             "Total forward-sweep kernel seconds over all iterations")
      .set(total.forward_seconds);
  obs::registry()
      .gauge("gnumap_bench_phmm_backward_seconds" + labels,
             "Total backward-sweep kernel seconds over all iterations")
      .set(total.backward_seconds);
  obs::registry()
      .gauge("gnumap_bench_phmm_gcups" + labels,
             "Useful DP cells per kernel-second / 1e9 (docs/KERNELS.md §9)")
      .set(gcups);
  std::size_t batch_cells = 0;
  for (const Fixture& fx : fixtures) batch_cells += fx.cells();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_cells));
  state.counters["cells"] = static_cast<double>(batch_cells);
  state.counters["gcups"] = gcups;
  state.counters["lane_occupancy"] = occupancy;
  state.SetLabel(std::string(phmm::simd_level_name(level)) + "/" +
                 phmm::precision_name(precision));
}

/// Batched SIMD engine over a 32-task batch of identical-length reads.
/// range(0) = read length, range(1) = SimdLevel (0 scalar / 1 sse2 /
/// 2 avx2), range(2) = lane precision (0 fp64 / 1 fp32).  Compare cells/s
/// ("items") against BM_ForwardBackward at the same read length for the
/// batching + vectorization speedup; the fp64 rows are bit-identical
/// across levels, so that axis is a pure throughput knob, while fp32
/// doubles the lane count at ~1e-5 relative score error (KERNELS.md §8).
void run_uniform_batch(benchmark::State& state, bool forward_only) {
  const auto level = static_cast<phmm::SimdLevel>(state.range(1));
  if (phmm::resolve_simd_level(level) != level) {
    state.SkipWithError("SIMD level not supported on this host");
    return;
  }
  const auto precision = state.range(2) == 0 ? phmm::Precision::kDouble
                                             : phmm::Precision::kSingle;
  constexpr std::size_t kBatch = 32;
  // Distinct fixtures per slot so lanes carry independent problems, as in
  // the mapper (every candidate window differs).
  std::vector<Fixture> fixtures;
  fixtures.reserve(kBatch);
  for (std::size_t t = 0; t < kBatch; ++t) {
    fixtures.emplace_back(static_cast<std::size_t>(state.range(0)));
  }
  const std::string series = std::string("level=\"") +
                             phmm::simd_level_name(level) + "\",prec=\"" +
                             phmm::precision_name(precision) +
                             "\",read_len=\"" +
                             std::to_string(state.range(0)) + "\"" +
                             (forward_only ? ",sweep=\"forward\"" : "");
  run_batched(state, fixtures, level, precision, phmm::kDefaultBinSlack,
              series, forward_only);
}

void BM_BatchedForwardBackward(benchmark::State& state) {
  run_uniform_batch(state, /*forward_only=*/false);
}
BENCHMARK(BM_BatchedForwardBackward)
    ->ArgsProduct({{36, 62, 100, 150}, {0, 1, 2}, {0, 1}});

/// BM_BatchedForwardBackward's batch through run_forward(): the forward
/// sweep alone, which is what the mapper runs over every candidate before
/// it prunes (docs/KERNELS.md §5).  Same arguments; GCUPS here counts each
/// cell once per forward sweep, so it is not comparable one to one with
/// the forward+backward rows' figure.
void BM_BatchedForwardOnly(benchmark::State& state) {
  run_uniform_batch(state, /*forward_only=*/true);
}
BENCHMARK(BM_BatchedForwardOnly)
    ->ArgsProduct({{36, 62, 100, 150}, {0, 1, 2}, {0, 1}});

/// The length-binned scheduler on a mapper-realistic mixed batch: 32 tasks
/// whose read lengths cycle over 36..62 bp.  range(0) = SimdLevel,
/// range(1) = precision, range(2) = binning (0 = slack 0, i.e. the
/// identical-shapes-only packing; 1 = default slack).  With binning off,
/// every length change breaks the pack and lanes go idle; the
/// lane_occupancy counter shows how much of the sweep was useful either
/// way.  Results are bit-identical across all four fp64 variants.
void BM_BatchedMixedLength(benchmark::State& state) {
  const auto level = static_cast<phmm::SimdLevel>(state.range(0));
  if (phmm::resolve_simd_level(level) != level) {
    state.SkipWithError("SIMD level not supported on this host");
    return;
  }
  const auto precision = state.range(1) == 0 ? phmm::Precision::kDouble
                                             : phmm::Precision::kSingle;
  const std::size_t bin_slack =
      state.range(2) == 0 ? 0 : phmm::kDefaultBinSlack;
  constexpr std::size_t kBatch = 32;
  std::vector<Fixture> fixtures;
  fixtures.reserve(kBatch);
  for (std::size_t t = 0; t < kBatch; ++t) {
    fixtures.emplace_back(36 + (t * 7) % 27);  // 36..62 bp, shuffled order
  }
  const std::string series = std::string("level=\"") +
                             phmm::simd_level_name(level) + "\",prec=\"" +
                             phmm::precision_name(precision) +
                             "\",binning=\"" +
                             (bin_slack == 0 ? "off" : "on") +
                             "\",read_len=\"mixed\"";
  run_batched(state, fixtures, level, precision, bin_slack, series);
}
BENCHMARK(BM_BatchedMixedLength)->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1}});

void BM_MarginalCondense(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const PairHmm hmm((PhmmParams()));
  AlignmentMatrices mats;
  hmm.align(fx.pwm, fx.window, mats);
  const MarginalOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(condense_marginals(hmm, fx.pwm, mats, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.cells()));
}
BENCHMARK(BM_MarginalCondense)->Arg(62);

void BM_Viterbi(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const PairHmm hmm((PhmmParams()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(viterbi_align(hmm, fx.pwm, fx.window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.cells()));
}
BENCHMARK(BM_Viterbi)->Arg(62);

void BM_NeedlemanWunsch(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const NwParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw_align(fx.read, fx.window, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.cells()));
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(62);

void BM_AccumulatorAdd(benchmark::State& state) {
  const auto kind = static_cast<AccumKind>(state.range(0));
  const auto accum = make_accumulator(kind, 0, 4096);
  Rng rng(7);
  TrackVector delta{0.9f, 0.05f, 0.03f, 0.01f, 0.01f};
  std::uint64_t pos = 0;
  for (auto _ : state) {
    accum->add(pos, delta);
    pos = (pos + 61) & 4095;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(accum_kind_name(kind));
}
BENCHMARK(BM_AccumulatorAdd)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
