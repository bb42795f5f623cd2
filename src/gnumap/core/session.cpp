#include "gnumap/core/session.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "gnumap/core/obs_bridge.hpp"
#include "gnumap/core/sam_export.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/io/output_chunk.hpp"
#include "gnumap/io/sam.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/util/batch_queue.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap {

namespace {

/// One batch on its way from the decoder to a mapper worker.
struct DecodedBatch {
  std::uint64_t seq = 0;  ///< batch sequence number (0, 1, 2, ... in input order)
  ReadBatch batch;
};

/// One batch a worker finished, parked until the drain reaches its seq.
/// The worker has already rendered the batch into `chunk` and dropped the
/// reads and scored sites.
struct WorkedBatch {
  std::uint64_t reads = 0;  ///< batch size, for in-flight accounting
  MapStats stats;
  io::OutputChunk chunk;

  /// Byte weight for the splicer's output-buffer budget.
  std::uint64_t bytes() const { return chunk.bytes(); }
};

/// Everything the mapping stage mutates, shared by the serial and staged
/// paths so they drain identically.
struct DrainSink {
  const Genome& genome;
  const PipelineConfig& config;
  Accumulator& accum;
  std::ostream* sam_out;
  PipelineResult& result;
};

/// The --output-buffer-bytes default: room for one average-sized SAM chunk
/// per admission-window slot (a record is a few hundred bytes for typical
/// short reads), floored at 1 MiB so tiny configurations never throttle.
std::uint64_t output_buffer_budget(const PipelineConfig& config,
                                   int threads) {
  if (config.output_buffer_bytes != 0) return config.output_buffer_bytes;
  const std::uint64_t window =
      std::max<std::uint64_t>(1, config.queue_depth) +
      static_cast<std::uint64_t>(threads);
  return std::max<std::uint64_t>(std::uint64_t{1} << 20,
                                 window * config.stream_batch * 512);
}

/// Worker-side rendering: one scored batch becomes an OutputChunk — SAM
/// bytes plus the pre-scaled accumulator delta list, both in input order.
/// Runs concurrently on every mapper worker; touches nothing shared.
void render_chunk(const Genome& genome, const PipelineConfig& config,
                  const ReadBatch& batch,
                  const std::vector<std::vector<ScoredSite>>& scored,
                  bool want_sam, io::OutputChunk& chunk) {
  for (std::size_t r = 0; r < batch.reads.size(); ++r) {
    ReadMapper::flatten_contributions(scored[r], chunk.accum);
    if (want_sam) {
      for (const auto& record :
           to_sam_records(genome, batch.reads[r], scored[r], config)) {
        append_sam_record(chunk.sam, genome, record);
      }
    }
  }
}

/// Drain-side splice of a rendered chunk: replay the accumulator deltas in
/// order, then write() the preformatted bytes.  This is all that remains
/// on the single ordered consumer — everything it touches is free of locks
/// because only the draining thread calls it.
void splice_chunk(DrainSink& sink, WorkedBatch&& item) {
  GNUMAP_TRACE_SPAN("splice_chunk", "stream");
  Timer stage;
  io::apply_accum_deltas(sink.accum, item.chunk.accum);
  if (sink.sam_out != nullptr && !item.chunk.sam.empty()) {
    sink.sam_out->write(item.chunk.sam.data(),
                        static_cast<std::streamsize>(item.chunk.sam.size()));
    sink.result.output_bytes += item.chunk.sam.size();
  }
  sink.result.stats += item.stats;
  ++sink.result.batches_decoded;
  sink.result.splice_seconds += stage.seconds();
}

/// Serial in-line path: decode -> score -> render -> splice on the calling
/// thread.  One batch is resident at a time, so the memory bound holds
/// trivially, and going through the same render/splice pair as the staged
/// path is what makes threaded output byte-identical by construction.
void map_serial(ReadStream& reads, const ReadMapper& mapper, DrainSink& sink) {
  const bool want_sam = sink.sam_out != nullptr;
  MapperWorkspace ws;
  ReadBatch batch;
  Timer stage;
  for (;;) {
    stage.reset();
    const bool more = reads.next(batch);
    sink.result.decode_seconds += stage.seconds();
    if (!more) break;
    sink.result.reads_in_flight_peak =
        std::max<std::uint64_t>(sink.result.reads_in_flight_peak,
                                batch.size());
    WorkedBatch item;
    item.reads = batch.size();
    stage.reset();
    const auto scored = mapper.score_reads(
        std::span<const Read>(batch.reads.data(), batch.reads.size()), ws,
        item.stats);
    sink.result.map_stage_seconds += stage.seconds();
    stage.reset();
    render_chunk(sink.genome, sink.config, batch, scored, want_sam,
                 item.chunk);
    sink.result.format_seconds += stage.seconds();
    splice_chunk(sink, std::move(item));
  }
}

/// Staged path: decoder thread -> BatchQueue -> N workers (score + render)
/// -> ChunkSplicer -> ordered drain on the calling thread.
void map_staged(ReadStream& reads, const ReadMapper& mapper, DrainSink& sink,
                int threads) {
  const PipelineConfig& config = sink.config;
  const bool want_sam = sink.sam_out != nullptr;
  const std::size_t queue_depth = std::max<std::size_t>(1, config.queue_depth);
  BatchQueue<DecodedBatch> queue(queue_depth);
  // Worst case every worker holds one batch while one more is parked per
  // in-flight slot; queue_depth + threads admits them all (the drain's next
  // batch is always admitted, so the window cannot deadlock).  The splicer
  // additionally caps the rendered bytes parked in the window — a worker
  // whose chunk does not fit blocks until the drain catches up.
  io::ChunkSplicer<WorkedBatch> splicer(
      queue_depth + static_cast<std::size_t>(threads),
      output_buffer_budget(config, threads));

  auto& bytes_decoded = obs::registry().counter(
      "gnumap_stream_bytes_decoded_total",
      "Read bytes (name+bases+quals) decoded by the pipeline decoder");
  auto& queue_peak = obs::registry().gauge(
      "gnumap_stream_queue_depth_peak",
      "High-water mark of the decode->map batch queue");
  auto& batch_wait = obs::registry().histogram(
      "gnumap_stream_batch_wait_seconds", obs::default_time_buckets(),
      "Time mapper workers spend blocked waiting for a decoded batch");

  // First-exception-wins across decoder and workers; the loser stages shut
  // down via the queue/reorder close() calls.
  std::mutex error_mutex;
  std::exception_ptr error;
  auto capture_error = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
    queue.close();
    splicer.close();
  };

  // Reads decoded but not yet drained; the peak is the memory-bound test
  // hook surfaced as PipelineResult::reads_in_flight_peak.
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> in_flight_peak{0};

  // Stage-seconds accounting: the decoder and drain are single threads
  // (plain doubles), workers sum their local scoring and formatting time
  // under a mutex once at exit — no hot-path synchronization is added.
  double decode_seconds = 0.0;
  std::mutex map_stage_mutex;
  double map_stage_seconds = 0.0;
  double format_seconds = 0.0;

  std::thread decoder([&] {
    try {
      ReadBatch batch;
      std::uint64_t seq = 0;
      Timer stage;
      for (;;) {
        const double start_us = obs::trace_now_us();
        stage.reset();
        const bool more = reads.next(batch);
        decode_seconds += stage.seconds();
        if (!more) break;
        obs::record_complete("decode_batch", "stream", start_us,
                             obs::trace_now_us() - start_us, "reads",
                             static_cast<double>(batch.size()));
        bytes_decoded.inc(batch.bytes());
        const std::uint64_t now =
            in_flight.fetch_add(batch.size(), std::memory_order_relaxed) +
            batch.size();
        std::uint64_t peak = in_flight_peak.load(std::memory_order_relaxed);
        while (now > peak &&
               !in_flight_peak.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed)) {
        }
        if (!queue.push(DecodedBatch{seq++, std::move(batch)})) break;
      }
    } catch (...) {
      capture_error();
    }
    queue.close();
  });

  std::atomic<int> workers_left{threads};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      double scored_seconds = 0.0;
      double rendered_seconds = 0.0;
      try {
        MapperWorkspace ws;
        for (;;) {
          Timer wait;
          auto decoded = queue.pop();
          batch_wait.observe(wait.seconds());
          if (!decoded) break;
          GNUMAP_TRACE_SPAN("map_batch", "stream");
          const std::uint64_t seq = decoded->seq;
          WorkedBatch worked;
          {
            const ReadBatch& batch = decoded->batch;
            worked.reads = batch.size();
            Timer stage;
            const auto scored = mapper.score_reads(
                std::span<const Read>(batch.reads.data(), batch.reads.size()),
                ws, worked.stats);
            scored_seconds += stage.seconds();
            GNUMAP_TRACE_SPAN("render_chunk", "stream");
            stage.reset();
            render_chunk(sink.genome, config, batch, scored, want_sam,
                         worked.chunk);
            rendered_seconds += stage.seconds();
          }
          // Only the rendered chunk travels to the drain: the scored sites
          // died with the block above, and the decoded reads go before a
          // push that may block on the splicer's byte budget.
          decoded.reset();
          if (!splicer.push(seq, std::move(worked))) break;
        }
      } catch (...) {
        capture_error();
      }
      {
        std::lock_guard<std::mutex> lock(map_stage_mutex);
        map_stage_seconds += scored_seconds;
        format_seconds += rendered_seconds;
      }
      // The last worker out closes the splicer: every pushed batch is
      // already parked, so the drain still empties the in-order prefix.
      if (workers_left.fetch_sub(1) == 1) splicer.close();
    });
  }

  // The drained batch leaves the in-flight count before the reorder window
  // advances: otherwise a worker admitted at the new window edge could
  // free the decoder to count one more batch while this one still counts.
  const auto release = [&](const WorkedBatch& worked) {
    in_flight.fetch_sub(worked.reads, std::memory_order_relaxed);
  };
  while (auto worked = splicer.pop_next(release)) {
    splice_chunk(sink, std::move(*worked));
  }

  decoder.join();
  for (auto& worker : workers) worker.join();
  queue_peak.set(static_cast<double>(queue.peak_size()));
  obs::registry()
      .gauge("gnumap_stream_output_buffered_bytes_peak",
             "High-water mark of rendered output bytes parked in the "
             "splice window")
      .set(static_cast<double>(splicer.peak_pending_bytes()));
  sink.result.reads_in_flight_peak = std::max(
      sink.result.reads_in_flight_peak,
      in_flight_peak.load(std::memory_order_relaxed));
  sink.result.decode_seconds += decode_seconds;
  sink.result.map_stage_seconds += map_stage_seconds;
  sink.result.format_seconds += format_seconds;
  if (error) std::rethrow_exception(error);
}

/// The session's copy of `config`, rejected before any work starts when a
/// setting is invalid.
PipelineConfig checked_config(const PipelineConfig& config) {
  checked_min_coverage(config.min_coverage);
  return config;
}

}  // namespace

MappingSession::MappingSession(const Genome& genome,
                               const PipelineConfig& config)
    : genome_(genome),
      config_(checked_config(config)),
      index_([&]() -> HashIndex {
        Timer timer;
        const double start_us = obs::trace_now_us();
        HashIndex index(genome, config.index);
        index_seconds_ = timer.seconds();
        obs::record_complete("index_build", "pipeline", start_us,
                             obs::trace_now_us() - start_us, "bases",
                             static_cast<double>(genome.num_bases()));
        return index;
      }()),
      mapper_(genome_, index_, config_) {
  GNUMAP_LOG(kInfo) << "index built: " << index_.num_entries()
                    << " entries over " << genome_.num_bases() << " bases in "
                    << index_seconds_ << " s";
}

MappingSession::MappingSession(const Genome& genome,
                               const PipelineConfig& config, HashIndex&& index,
                               double index_seconds)
    : genome_(genome),
      config_(checked_config(config)),
      index_seconds_(index_seconds),
      index_(std::move(index)),
      mapper_(genome_, index_, config_) {
  require(index_.k() == config_.index.k,
          "MappingSession: prebuilt index k=" + std::to_string(index_.k()) +
              " disagrees with config k=" + std::to_string(config_.index.k));
  GNUMAP_LOG(kInfo) << "index adopted: " << index_.num_entries()
                    << " entries over " << genome_.num_bases()
                    << " bases (produced in " << index_seconds_ << " s)";
}

PipelineResult MappingSession::run(ReadStream& reads,
                                   std::unique_ptr<Accumulator>* accum_out,
                                   std::ostream* sam_out) const {
  PipelineResult result;
  result.index_seconds = index_seconds_;
  result.index_memory_bytes = index_.memory_bytes();

  double phase_start_us = obs::trace_now_us();
  auto accum = make_accumulator(config_.accum_kind, 0, genome_.padded_size(),
                                config_.centdisc_quantize);

  if (sam_out != nullptr) write_sam_header(*sam_out, genome_);

  Timer timer;
  const int threads = std::max(1, config_.threads);
  DrainSink sink{genome_, config_, *accum, sam_out, result};
  // The sized-stream escape hatch: spinning up the staged pipeline for a
  // handful of reads costs more than mapping them.  Unsized streams always
  // take the staged path when threads > 1 (their length is unknowable
  // before the last batch).
  const auto total = reads.size_hint();
  const bool serial =
      threads == 1 ||
      (total.has_value() &&
       *total - std::min<std::uint64_t>(*total, reads.cursor()) <
           config_.min_parallel_reads);
  if (serial) {
    map_serial(reads, mapper_, sink);
  } else {
    map_staged(reads, mapper_, sink, threads);
  }
  result.map_seconds = timer.seconds();
  obs::record_complete("map_reads", "pipeline", phase_start_us,
                       obs::trace_now_us() - phase_start_us, "reads",
                       static_cast<double>(result.stats.reads_total));
  result.accum_memory_bytes = accum->memory_bytes();
  GNUMAP_LOG(kInfo) << "mapped " << result.stats.reads_mapped << "/"
                    << result.stats.reads_total << " reads in "
                    << result.map_seconds << " s";

  timer.reset();
  phase_start_us = obs::trace_now_us();
  result.calls = call_snps(genome_, *accum, config_);
  result.call_seconds = timer.seconds();
  obs::record_complete("call_snps", "pipeline", phase_start_us,
                       obs::trace_now_us() - phase_start_us, "calls",
                       static_cast<double>(result.calls.size()));
  GNUMAP_LOG(kInfo) << "called " << result.calls.size() << " SNPs in "
                    << result.call_seconds << " s";

  publish_pipeline_result(result);
  if (accum_out != nullptr) *accum_out = std::move(accum);
  return result;
}

}  // namespace gnumap
