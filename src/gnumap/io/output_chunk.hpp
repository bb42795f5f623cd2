// Per-batch preformatted output and the order-splicing drain.
//
// The streaming pipeline's drain used to format every SAM/TSV byte and
// apply every accumulator update itself, which made it the serial section
// that capped scaling (DESIGN.md §12).  This header moves the expensive
// half of that work to the mapper workers: each worker renders its batch
// into an OutputChunk — flat byte buffers per sink plus a pre-scaled
// accumulator delta list — and the drain becomes a ChunkSplicer that
// stitches chunks back into input order and write()s them.
//
// Ordering invariant: a chunk's bytes and deltas are produced in input
// order within the batch, and the splicer releases chunks in batch
// sequence order, so the concatenated output and the sequence of
// Accumulator::add calls are exactly those of the serial path — output
// stays byte-identical (and accumulation bit-identical, float addition
// being order-sensitive) for any worker count.
//
// Memory invariant: the splicer bounds both the number of parked chunks
// (the PR 4 admission window) and their summed rendered bytes
// (--output-buffer-bytes), with the in-order chunk exempt from both limits
// so the window can never deadlock (see util/batch_queue.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/util/batch_queue.hpp"

namespace gnumap {
namespace io {

/// One pre-scaled accumulator contribution: `counts` is a site's track
/// vector already multiplied by the site's posterior weight.  Replaying
/// deltas with Accumulator::add in list order reproduces the serial
/// accumulation bit-for-bit — the multiply is per-entry and thus
/// order-free, only the adds are order-sensitive, and the list preserves
/// their serial order.
struct AccumDelta {
  std::uint64_t pos = 0;
  TrackVector counts{};
};

/// Everything one batch contributes to the output, rendered by the worker
/// that mapped it.  Segments are per sink; unused segments stay empty
/// (the shared-memory pipeline fills sam + accum, the distributed root
/// splices tsv bodies, the serve layer frames sam and tsv).
struct OutputChunk {
  std::string sam;                ///< SAM records, input order, no header
  std::string tsv;                ///< TSV rows, no header line
  std::vector<AccumDelta> accum;  ///< pre-scaled adds, serial order

  /// Buffered footprint counted against the splicer's byte budget.
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(sam.size()) +
           static_cast<std::uint64_t>(tsv.size()) +
           static_cast<std::uint64_t>(accum.size()) * sizeof(AccumDelta);
  }

  bool empty() const { return sam.empty() && tsv.empty() && accum.empty(); }

  void clear() {
    sam.clear();
    tsv.clear();
    accum.clear();
  }
};

/// Replays a chunk's accumulator deltas in order.  Positions outside the
/// accumulator's range are ignored by Accumulator::add itself (the
/// genome-partition mode relies on that clipping).
void apply_accum_deltas(Accumulator& accum,
                        const std::vector<AccumDelta>& deltas);

/// The order-splicing drain: a ReorderBuffer of rendered chunks whose
/// admission window counts buffered output bytes as well as parked chunks.
/// Workers push(seq, chunk); the single drain thread pop_next()s chunks in
/// input order and write()s their segments.  `Chunk` must expose
/// `std::uint64_t bytes() const`; the pipeline instantiates this with a
/// wrapper that carries an OutputChunk plus per-batch stats.
///
/// Thread contract: push from any number of threads, pop_next/counters
/// from the single drain thread (counters are safe to read from other
/// threads once the drain has finished).
template <typename Chunk = OutputChunk>
class ChunkSplicer {
 public:
  /// `window` chunks and `max_buffered_bytes` rendered bytes (0 = no byte
  /// limit) may be parked waiting for the in-order chunk; that chunk itself
  /// is always admitted, so each limit can be exceeded by at most one
  /// chunk.
  ChunkSplicer(std::size_t window, std::uint64_t max_buffered_bytes)
      : reorder_(window, max_buffered_bytes) {}

  /// Parks `chunk` as batch sequence `seq`; blocks while the window or the
  /// byte budget is full (unless seq is the in-order chunk).  Returns false
  /// if the splicer was closed first.
  bool push(std::uint64_t seq, Chunk chunk) {
    const std::uint64_t weight = chunk.bytes();
    return reorder_.push(seq, std::move(chunk), weight);
  }

  /// Returns chunks in exactly push-sequence order; blocks until the next
  /// one arrives.  Returns nullopt once closed with no in-order chunk
  /// parked.
  std::optional<Chunk> pop_next() {
    return pop_next([](const Chunk&) {});
  }

  /// pop_next() that calls `release(chunk)` before the window advances
  /// past the chunk (ReorderBuffer::pop_next(release)).
  template <typename Release>
  std::optional<Chunk> pop_next(Release&& release) {
    auto chunk = reorder_.pop_next(std::forward<Release>(release));
    if (chunk.has_value()) {
      ++chunks_spliced_;
      spliced_bytes_ += chunk->bytes();
    }
    return chunk;
  }

  /// Unblocks every waiter; parked out-of-order chunks are discarded.
  void close() { reorder_.close(); }

  /// Chunks / rendered bytes released through pop_next so far.
  std::uint64_t chunks_spliced() const { return chunks_spliced_; }
  std::uint64_t spliced_bytes() const { return spliced_bytes_; }
  /// High-water marks of the parked window (count and bytes).
  std::size_t peak_pending() const { return reorder_.peak_pending(); }
  std::uint64_t peak_pending_bytes() const {
    return reorder_.peak_weight_pending();
  }

 private:
  ReorderBuffer<Chunk> reorder_;
  std::uint64_t chunks_spliced_ = 0;
  std::uint64_t spliced_bytes_ = 0;
};

}  // namespace io
}  // namespace gnumap
