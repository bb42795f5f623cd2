#include "gnumap/core/obs_bridge.hpp"

#include <string>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/obs/metrics.hpp"

namespace gnumap {

namespace {

void set_gauge(const char* name, const char* help, double value) {
  obs::registry().gauge(name, help).set(value);
}

void set_rank_gauge(const std::string& base, int rank, const char* help,
                    double value) {
  obs::registry()
      .gauge(base + "{rank=\"" + std::to_string(rank) + "\"}", help)
      .set(value);
}

}  // namespace

void publish_map_stats(const MapStats& stats) {
  set_gauge("gnumap_reads_total", "Reads presented to the mapper",
            static_cast<double>(stats.reads_total));
  set_gauge("gnumap_reads_mapped_total", "Reads with at least one mapping",
            static_cast<double>(stats.reads_mapped));
  set_gauge("gnumap_candidates_evaluated_total",
            "Candidate sites scored through the PHMM",
            static_cast<double>(stats.candidates_evaluated));
  set_gauge("gnumap_sites_accumulated_total",
            "Genome positions receiving posterior mass",
            static_cast<double>(stats.sites_accumulated));
  set_gauge("gnumap_phmm_dp_cells_total", "Pair-HMM DP cells computed",
            static_cast<double>(stats.dp_cells));
  set_gauge("gnumap_phmm_forward_seconds",
            "Wall seconds inside batched forward kernels",
            stats.phmm_forward_seconds);
  set_gauge("gnumap_phmm_backward_seconds",
            "Wall seconds inside batched backward kernels",
            stats.phmm_backward_seconds);
}

void publish_comm_stats(int rank, const CommStats& stats) {
  set_rank_gauge("gnumap_rank_messages_sent_total", rank,
                 "Messages sent by the rank",
                 static_cast<double>(stats.messages_sent));
  set_rank_gauge("gnumap_rank_bytes_sent_total", rank,
                 "Payload bytes sent by the rank",
                 static_cast<double>(stats.bytes_sent));
  set_rank_gauge("gnumap_rank_messages_received_total", rank,
                 "Messages received by the rank",
                 static_cast<double>(stats.messages_received));
  set_rank_gauge("gnumap_rank_bytes_received_total", rank,
                 "Payload bytes received by the rank",
                 static_cast<double>(stats.bytes_received));
  set_rank_gauge("gnumap_rank_recv_timeouts_total", rank,
                 "Blocking waits that expired",
                 static_cast<double>(stats.recv_timeouts));
  set_rank_gauge("gnumap_rank_peer_failures_total", rank,
                 "Waits aborted by a dead or finished peer",
                 static_cast<double>(stats.peer_failures_seen));
}

void publish_pipeline_result(const PipelineResult& result) {
  publish_map_stats(result.stats);
  set_gauge("gnumap_pipeline_index_seconds", "Hash-index build phase",
            result.index_seconds);
  set_gauge("gnumap_pipeline_map_seconds", "Read-mapping phase",
            result.map_seconds);
  set_gauge("gnumap_pipeline_call_seconds", "SNP-calling phase",
            result.call_seconds);
  set_gauge("gnumap_accum_memory_bytes", "Accumulation buffer heap bytes",
            static_cast<double>(result.accum_memory_bytes));
  set_gauge("gnumap_index_memory_bytes", "Hash-index heap bytes",
            static_cast<double>(result.index_memory_bytes));
  set_gauge("gnumap_stream_reads_in_flight_peak",
            "High-water mark of reads decoded but not yet drained",
            static_cast<double>(result.reads_in_flight_peak));
  set_gauge("gnumap_stream_batches_total",
            "ReadBatches drained through the pipeline",
            static_cast<double>(result.batches_decoded));
  set_gauge("gnumap_output_format_seconds",
            "Worker-side output rendering (SAM bytes + accumulator-delta "
            "scaling) summed across mapper workers",
            result.format_seconds);
  set_gauge("gnumap_output_splice_seconds",
            "Ordered-drain splice time (byte writes + replaying "
            "accumulator adds)",
            result.splice_seconds);
  obs::registry()
      .counter("gnumap_output_bytes_total",
               "Output bytes written to sinks by the ordered drain")
      .inc(result.output_bytes);
  set_gauge("gnumap_snp_calls_emitted", "SNP calls in the final output",
            static_cast<double>(result.calls.size()));
}

void publish_dist_result(const DistResult& result) {
  publish_map_stats(result.stats);
  for (std::size_t r = 0; r < result.costs.size(); ++r) {
    publish_comm_stats(static_cast<int>(r), result.costs[r].comm);
    set_rank_gauge("gnumap_rank_compute_seconds", static_cast<int>(r),
                   "Slowdown-scaled compute seconds of the final attempt",
                   result.costs[r].compute_seconds);
  }
  set_gauge("gnumap_dist_ranks", "World size of the distributed run",
            static_cast<double>(result.costs.size()));
  set_gauge("gnumap_dist_wall_seconds", "Host wall time (diagnostic)",
            result.wall_seconds);
  set_gauge("gnumap_dist_attempts_total",
            "World executions including aborted attempts",
            static_cast<double>(result.recovery.attempts));
  set_gauge("gnumap_dist_resent_messages_total",
            "Messages burned in aborted attempts",
            static_cast<double>(result.recovery.resent_messages));
  set_gauge("gnumap_dist_resent_bytes_total",
            "Payload bytes burned in aborted attempts",
            static_cast<double>(result.recovery.resent_bytes));
  set_gauge("gnumap_dist_redone_compute_seconds",
            "Compute seconds burned in aborted attempts",
            result.recovery.redone_compute_seconds);
  set_gauge("gnumap_snp_calls_emitted", "SNP calls in the final output",
            static_cast<double>(result.calls.size()));
}

}  // namespace gnumap
