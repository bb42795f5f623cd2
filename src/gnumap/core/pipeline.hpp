// The shared-memory GNUMAP-SNP pipeline: build the hash table, map every
// read through the PHMM, accumulate, then LRT-call SNPs.
//
// Mapping runs as a staged streaming pipeline (DESIGN.md §9): a decoder
// thread pulls fixed-size ReadBatches from a ReadStream into a bounded
// BatchQueue, N mapper workers score batches concurrently (thread-local
// workspaces, lock-free on the PHMM hot path), and the caller's thread
// drains results through a ReorderBuffer in input order.  Consequences:
//
//  * peak read memory is O((queue_depth + threads) x stream_batch),
//    independent of dataset size — IO overlaps the SIMD PHMM sweeps;
//  * SAM records and accumulator updates are applied in input order, so
//    output is byte-identical for any thread count (and identical to the
//    serial path).
//
// The std::vector<Read> overloads are compatibility shims over an in-memory
// VectorReadStream.  For distributed-memory execution see dist_modes.hpp.
// The mapping machinery itself lives behind core/session.hpp: a
// MappingSession owns the built index + mapper and can run many read sets
// against them; run_pipeline_stream is the one-shot wrapper.
#pragma once

#include <memory>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/io/read.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"

namespace gnumap {

struct PipelineResult {
  std::vector<SnpCall> calls;
  MapStats stats;
  double index_seconds = 0.0;
  double map_seconds = 0.0;
  double call_seconds = 0.0;
  /// Heap bytes of the accumulation buffer (Table II / III `MEM` column
  /// counts this plus genome + index, reported separately by the bench).
  std::uint64_t accum_memory_bytes = 0;
  std::uint64_t index_memory_bytes = 0;
  /// High-water mark of reads resident in the mapping stage (decoded but
  /// not yet drained).  On the streaming path this is bounded by
  /// (2 * (queue_depth + threads) + 1) * stream_batch whatever the dataset
  /// size; the bound is asserted in tests/test_stream.cpp and reported by
  /// bench/bench_pipeline_stream.
  std::uint64_t reads_in_flight_peak = 0;
  std::uint64_t batches_decoded = 0;
  /// Per-stage wall-clock totals for the mapping phase, feeding the serve
  /// layer's per-request latency digests: decode_seconds is time inside
  /// ReadStream::next on the decoder (serial path: the calling) thread,
  /// map_stage_seconds sums scoring time across mapper workers (can exceed
  /// map_seconds when threads > 1).  The former drain_seconds is split
  /// along the worker-format refactor (DESIGN.md §12): format_seconds is
  /// output rendering (SAM bytes + accumulator-delta scaling), summed
  /// across workers like map_stage_seconds; splice_seconds is what is left
  /// on the single ordered drain (byte splicing + replaying accumulator
  /// adds).  drain_seconds() is kept as the sum for wire/digest
  /// compatibility.  Pure observers: timing adds no
  /// synchronization to the staged pipeline beyond one addition per batch
  /// per stage.
  double decode_seconds = 0.0;
  double map_stage_seconds = 0.0;
  double format_seconds = 0.0;
  double splice_seconds = 0.0;
  double drain_seconds() const { return format_seconds + splice_seconds; }
  /// Output bytes spliced by the drain (SAM on the shared-memory path;
  /// accumulator deltas are counted by the splicer's buffer budget but not
  /// here — this is bytes that reach a sink).
  std::uint64_t output_bytes = 0;
};

/// Runs the full pipeline over a read stream (the primary entry point).
/// The accumulator covers the whole padded genome.  Optionally returns the
/// final accumulator (tests, experiments inspecting the accumulated z
/// vectors) via `accum_out` and streams SAM records for every read to
/// `sam_out` (header included; unmapped reads get unmapped records), always
/// in input order.
PipelineResult run_pipeline_stream(
    const Genome& genome, ReadStream& reads, const PipelineConfig& config,
    std::unique_ptr<Accumulator>* accum_out = nullptr,
    std::ostream* sam_out = nullptr);

/// Compatibility overload: wraps `reads` in a VectorReadStream.
PipelineResult run_pipeline(const Genome& genome,
                            const std::vector<Read>& reads,
                            const PipelineConfig& config);

/// Compatibility overload of run_pipeline_stream over an in-memory vector.
PipelineResult run_pipeline_with_accumulator(
    const Genome& genome, const std::vector<Read>& reads,
    const PipelineConfig& config, std::unique_ptr<Accumulator>* accum_out,
    std::ostream* sam_out = nullptr);

}  // namespace gnumap
