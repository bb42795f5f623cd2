// Pipeline configuration: one struct that threads every knob through the
// three-step GNUMAP-SNP approach (hash/seed -> PHMM marginal alignment ->
// LRT SNP calling).
#pragma once

#include <cstdint>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/index/hash_index.hpp"
#include "gnumap/index/seeder.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/phmm/marginal.hpp"
#include "gnumap/phmm/params.hpp"
#include "gnumap/stats/lrt.hpp"

namespace gnumap {

struct PipelineConfig {
  // Step 1: genomic hash table + seeding.
  HashIndexOptions index;
  SeederOptions seeder;

  // Step 2: PHMM marginal alignment.
  PhmmParams phmm;
  MarginalOptions marginal;
  /// SIMD dispatch level for the batched PHMM kernel.  kAuto defers to the
  /// GNUMAP_SIMD environment variable, then to the best level the host
  /// supports; every level produces bit-identical results (see
  /// docs/KERNELS.md), so this is purely a speed knob.
  phmm::SimdLevel simd = phmm::SimdLevel::kAuto;
  /// Lane precision for the batched PHMM kernel.  kAuto defers to the
  /// GNUMAP_PHMM_FP32 environment variable and otherwise stays fp64 (the
  /// bit-identical default).  kSingle doubles the lane count; reads whose
  /// mapping decisions land within phmm_fp32_margin of a threshold are
  /// recomputed with the scalar double oracle so call decisions match the
  /// fp64 pipeline (docs/KERNELS.md §8).
  phmm::Precision phmm_precision = phmm::Precision::kAuto;
  /// Length-binning slack for the batched PHMM scheduler: the DP-shape
  /// spread allowed within one SIMD pack (0 = identical shapes only, the
  /// pre-binning packing).  Purely a speed knob — results are bit-identical
  /// at any value (docs/KERNELS.md §7).
  std::size_t phmm_bin_slack = phmm::kDefaultBinSlack;
  /// FP32 only: the recompute margin, in log-likelihood units.  A read is
  /// re-scored with the scalar double oracle when its best score lands
  /// within this margin of the mapped-at-all cutoff, or any site posterior
  /// lands within it (in log units) of min_site_posterior.
  double phmm_fp32_margin = 0.5;
  /// Extra genome bases on each side of a candidate window (absorbs indels
  /// and diagonal binning slack).
  int window_pad = 12;
  /// A read is considered mapped when its best candidate's log-likelihood
  /// per read base exceeds this (a perfectly matching read scores ~ -1.5;
  /// a random placement ~ -2.8 under default parameters).
  double min_loglik_per_base = -2.0;
  /// Candidate sites whose mapping posterior falls below this are dropped
  /// from the marginal accumulation.
  double min_site_posterior = 1e-3;

  // Genome accumulation (Section VI-B).
  AccumKind accum_kind = AccumKind::kNorm;
  /// CENTDISC only: paper-style approximate conversion vs exact
  /// nearest-centroid (our extension).
  CentDiscQuantize centdisc_quantize = CentDiscQuantize::kApproximate;

  // Step 3: LRT SNP calling.
  Ploidy ploidy = Ploidy::kMonoploid;
  /// SNP-wise false-positive rate; the decision threshold is the
  /// (1 - alpha/5) quantile of chi^2_1.
  double alpha = 1e-4;
  /// If true, Benjamini-Hochberg at level fdr_q replaces the fixed cutoff.
  bool use_fdr = false;
  double fdr_q = 0.05;
  /// Minimum accumulated mass n at a position before the LRT is attempted
  /// (a position with n = 0 is never tested); must be >= 0, see
  /// checked_min_coverage (snp_caller.hpp).
  double min_coverage = 3.0;

  /// Worker threads for shared-memory mapping (1 = serial).
  int threads = 1;

  // Streaming read pipeline (see DESIGN.md §9).
  /// Reads per ReadBatch when the pipeline batches a stream or wraps a
  /// vector in one.  Results are independent of this value (the batched
  /// PHMM engine is bit-identical at any chunking); it trades queue memory
  /// against scheduling overhead.
  std::uint32_t stream_batch = 256;
  /// Decoded batches the decode->map queue may hold; with the reorder
  /// window this bounds peak in-flight read memory at about
  /// 2 * (queue_depth + threads) * stream_batch reads, independent of
  /// dataset size.
  std::uint32_t queue_depth = 4;
  /// Inputs smaller than this run on the serial in-line path even when
  /// threads > 1 (spinning up the staged pipeline costs more than mapping a
  /// handful of reads).  Tests set this to 0 to force the parallel path on
  /// tiny deterministic inputs.
  std::uint32_t min_parallel_reads = 64;
  /// Rendered-but-not-yet-spliced output bytes the drain's reorder window
  /// may buffer (the --output-buffer-bytes knob).  Workers format their own
  /// batches (DESIGN.md §12), so without this cap a straggler holding the
  /// in-order batch would let the others park unbounded preformatted
  /// output; with it a worker whose chunk does not fit blocks until the
  /// drain catches up.  0 derives a default from stream_batch (roughly
  /// (queue_depth + threads) average-sized SAM chunks, 1 MiB floor); the
  /// in-order chunk is always admitted, so any value is deadlock-free.
  std::uint64_t output_buffer_bytes = 0;
};

/// Counters describing one mapping run.
struct MapStats {
  std::uint64_t reads_total = 0;
  std::uint64_t reads_mapped = 0;
  std::uint64_t candidates_evaluated = 0;
  std::uint64_t sites_accumulated = 0;
  /// DP cells, (read length + 1) * (window + 1), of each candidate that
  /// aligned (ok), counted once per candidate.  The kernel's own
  /// KernelTimings::cells differs: it counts every swept task, so
  /// score_reads' survivors add their cells a second time for the
  /// forward+backward re-sweep.
  std::uint64_t dp_cells = 0;
  /// Wall-clock seconds inside the batched PHMM kernels (score_reads only;
  /// the scalar oracle, score_reads_raw, is untimed).  Forward covers both
  /// score_reads sweeps: the all-candidate forward-only pass and the
  /// survivors' re-sweep; backward runs for survivors only.  Feeds the
  /// alpha-beta cost model and the Figure-4 / Table-3 benches.
  double phmm_forward_seconds = 0.0;
  double phmm_backward_seconds = 0.0;
  /// Reads re-scored with the scalar double oracle because an fp32 mapping
  /// decision was within the recompute margin (always 0 in fp64 mode).
  std::uint64_t fp32_recomputed_reads = 0;

  MapStats& operator+=(const MapStats& other) {
    reads_total += other.reads_total;
    reads_mapped += other.reads_mapped;
    candidates_evaluated += other.candidates_evaluated;
    sites_accumulated += other.sites_accumulated;
    dp_cells += other.dp_cells;
    phmm_forward_seconds += other.phmm_forward_seconds;
    phmm_backward_seconds += other.phmm_backward_seconds;
    fp32_recomputed_reads += other.fp32_recomputed_reads;
    return *this;
  }
};

}  // namespace gnumap
