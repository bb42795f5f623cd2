// The long-lived mapping server behind gnumapd.
//
// A MappingServer owns one ResidentGenome — the genome and hash index are
// built (or mmap()ed from an index file) at construction and stay hot for
// the process lifetime — plus a TCP listener and one handler thread per
// connection.  Each MAP request feeds the wire's READS_CHUNK frames through
// a ChunkSourceBuf-backed FastqReadStream straight into the staged
// pipeline, so socket reads are pulled by the pipeline's decoder with its
// normal backpressure, and the admission window (admission.hpp) bounds
// total in-flight reads across all concurrent requests; requests that do
// not fit are answered BUSY with a queue-depth-scaled retry hint.  Results
// stream back as RESULT_* frames whose concatenated bytes are identical to
// the offline CLI's outputs for the same input.
//
// Robustness: malformed, corrupt (CRC), or oversized frames, FASTQ parse
// failures, and idle peers get a typed ERROR frame and a closed connection
// — never a dead server.  Every request runs under a deadline that is the
// tighter of the server's request_timeout_ms and the client's MAP_BEGIN
// deadline; a watchdog thread evicts connections stalled past that
// deadline (a peer that stopped reading results can otherwise pin a
// handler in send) and connections over their lifetime budget.
// request_stop() (wired to SIGINT/SIGTERM by gnumapd, or to the SHUTDOWN
// frame) drains: the listener stops accepting, in-flight requests finish,
// idle connections close, then wait() returns.  HEALTH probes — allowed
// even before HELLO — report readiness without consuming a request slot.
//
// Chaos drills: ServeOptions::fault_plan (gnumapd --fault-plan /
// GNUMAP_WIRE_FAULT_PLAN) attaches a fresh deterministic fault injector
// (fault_shim.hpp) to every accepted connection, so eviction, retry, and
// corruption paths can be exercised against a live server.
//
// Observability (docs/OBSERVABILITY.md): gnumap_serve_* metrics — request
// latency histogram, admitted-reads and queue-depth gauges, rejected,
// error, eviction, corrupt-frame, and deadline-abandoned counters, bytes
// on the wire — plus serve_request trace spans tagged with connection and
// request ids and the client's trace id.  Every finished request leaves a
// RequestDigest (digest.hpp) in a recent-requests ring and one structured
// request_digest log line; MAP_DONE carries the same per-stage timing
// summary back to the client.  ServeOptions::admin_port
// (default off) additionally starts an embedded admin HTTP endpoint
// (admin_http.hpp) serving /metrics, /healthz, /statusz, and /tracez for
// live fleet introspection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gnumap/core/config.hpp"
#include "gnumap/core/session.hpp"
#include "gnumap/fleet/resident_genome.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/serve/admission.hpp"
#include "gnumap/serve/digest.hpp"
#include "gnumap/serve/fault_shim.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::serve {

class AdminHttpServer;

struct ServeOptions {
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Bind 0.0.0.0 instead of loopback.
  bool bind_any = false;
  /// Concurrent connections; further accepts get BUSY and are closed.
  int max_connections = 16;
  /// Admission window: total reads that may be in flight across all
  /// requests at once (each request reserves its worst-case pipeline
  /// in-flight bound up front).
  std::uint64_t admission_reads = 1u << 20;
  /// Max window share one connection may hold (0 = whole window).
  std::uint64_t per_connection_reads = 0;
  /// Largest accepted frame payload.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-frame socket deadline: a peer silent this long mid-request is
  /// timed out with a typed error.
  int io_timeout_ms = 30'000;
  /// Whole-request deadline (MAP_BEGIN to MAP_DONE; 0 = unlimited).  The
  /// effective deadline is the tighter of this and the client's MAP_BEGIN
  /// deadline_ms.
  int request_timeout_ms = 300'000;
  /// Base hint sent with BUSY responses; scaled up with queue depth
  /// (capped at busy_retry_max_ms) so a saturated server spreads retries
  /// out instead of inviting a thundering herd.
  std::uint32_t busy_retry_ms = 250;
  /// Ceiling for the queue-depth-scaled BUSY retry hint.
  std::uint32_t busy_retry_max_ms = 10'000;
  /// Lifetime budget per connection in seconds (0 = unlimited); the
  /// watchdog evicts connections older than this with a typed kEvicted.
  double max_connection_seconds = 0.0;
  /// Received-byte budget per connection (0 = unlimited); exceeding it
  /// mid-upload yields a typed kEvicted.
  std::uint64_t max_connection_bytes = 0;
  /// Deterministic wire fault plan applied to every accepted connection
  /// (and the listener, for accept-delay events).  Empty = no faults.
  WireFaultPlan fault_plan;
  /// Embedded admin HTTP endpoint (admin_http.hpp): -1 disables it (no
  /// socket is opened), 0 picks an ephemeral port (read back via
  /// MappingServer::admin_port()), otherwise the fixed port to bind.
  /// Binds loopback unless bind_any is also set.
  int admin_port = -1;
  /// Most recent request digests retained for /tracez and STATS.
  std::size_t digest_ring_capacity = 256;

  /// Shard mode: this daemon owns segment shard_index of shard_count
  /// (shard_index < 0 = whole-genome daemon).  See fleet/resident_genome.hpp.
  int shard_index = -1;
  int shard_count = 0;
  /// Longest read the shard overlap margin must absorb.
  std::uint32_t shard_max_read_len = 512;
};

/// Rolled-up service counters (also exported as gnumap_serve_* metrics;
/// this struct is the STATS frame's source).
struct ServerStats {
  std::uint64_t connections_total = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t reads_mapped_total = 0;
  std::uint64_t reads_total = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t evictions_total = 0;
  std::uint64_t corrupt_frames_total = 0;
  std::uint64_t deadline_abandoned_total = 0;
};

class MappingServer {
 public:
  /// Builds the resident session (the expensive index build happens here)
  /// and binds the listener; throws on bind failure.  `genome` must
  /// outlive the server.
  MappingServer(const Genome& genome, const PipelineConfig& config,
                const ServeOptions& options);

  /// Serves a gnumap_index file (mmap instant start).  A file the daemon
  /// cannot serve is refused before the listener is bound (see
  /// fleet/resident_genome.hpp for the typed refusals).
  MappingServer(const std::string& index_path, const PipelineConfig& config,
                const ServeOptions& options);
  ~MappingServer();

  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// The bound port (useful with ServeOptions::port == 0).
  std::uint16_t port() const;

  /// Starts the accept loop and watchdog on background threads and returns.
  void start();

  /// Blocks until the server has fully stopped (all handlers joined).
  void wait();

  /// start() + wait().
  void run();

  /// Begins a graceful drain; idempotent and safe from any thread.  The
  /// SHUTDOWN frame and gnumapd's signal handlers call this.
  void request_stop();

  bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// The resident genome; named registry() because perfbench reads it so.
  const fleet::ResidentGenome& registry() const { return genome_; }

  /// Snapshot of the rolled-up counters.
  ServerStats stats() const;

  /// Worst-case in-flight reads one request reserves from the admission
  /// window: the staged pipeline's documented peak for this config.
  std::uint64_t request_window_reads() const;

  /// The admin endpoint's bound port, or -1 when ServeOptions::admin_port
  /// left it disabled (no admin socket exists then).
  int admin_port() const;

  /// One row of the live connection roster, as served at /statusz.
  struct ConnectionInfo {
    int conn_id = -1;
    std::string peer;
    bool in_request = false;
    bool cancelled = false;  ///< watchdog tripped cancel (drain/eviction)
    std::uint64_t rx_bytes = 0;
    double age_seconds = 0.0;
  };

  /// Snapshot of every live connection (taken under the roster mutex).
  std::vector<ConnectionInfo> connection_table() const;

  /// Recent per-request latency digests (admin /tracez + STATS surface).
  const DigestRing& digests() const { return digests_; }

  /// The STATS / HEALTH key=value payloads; the admin endpoint reuses
  /// health_text() verbatim at /healthz.
  std::string stats_text() const;
  std::string health_text() const;

  /// The /statusz JSON document: build identity, genome/session facts,
  /// admission occupancy, rolled-up counters, and the connection table.
  std::string statusz_json() const;

 private:
  struct ConnectionSlot;

  void accept_loop();
  /// Scans live connections every ~100 ms: cancels idle connections once a
  /// drain begins, evicts connections past their lifetime budget, and
  /// abandons requests whose deadline has expired even when the handler is
  /// wedged in a blocking send (peer stopped reading).  Also reaps
  /// finished handler threads so wait() converges.
  void watchdog_loop();
  void handle_connection(Socket sock, ConnectionSlot& slot);
  /// One MAP transaction after its MAP_BEGIN frame; returns false when the
  /// connection should close.  Dispatches shard-partial requests to
  /// handle_shard_map.
  bool handle_map(Socket& sock, ConnectionSlot& slot,
                  const MapBeginInfo& begin);
  /// The kFlagShardPartials request body: SHARD_READS batches scored with
  /// score_reads_raw over the shard's core diagonal range, answered with
  /// RESULT_PARTIAL frames (fleet/partials.hpp).  Runs after MAP_GO.
  void handle_shard_map(Socket& sock, ConnectionSlot& slot, MapStats& stats,
                        int effective_timeout_ms);
  void send_error(Socket& sock, WireErrorCode code, const std::string& msg);
  /// Maps a watchdog cancellation on `slot` to the typed error the peer
  /// should see (eviction, abandoned deadline, or plain drain).
  std::pair<WireErrorCode, std::string> cancel_reason(
      const ConnectionSlot& slot) const;
  /// BUSY retry hint scaled by how many request windows are already
  /// admitted, capped at busy_retry_max_ms.
  std::uint32_t busy_retry_hint() const;

  MappingServer(fleet::ResidentGenome genome, const ServeOptions& options);

  ServeOptions options_;
  fleet::ResidentGenome genome_;
  std::unique_ptr<Listener> listener_;
  AdmissionController admission_;
  DigestRing digests_;
  std::unique_ptr<AdminHttpServer> admin_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::thread accept_thread_;
  std::thread watchdog_thread_;
  Timer uptime_;

  mutable std::mutex conns_mutex_;
  std::vector<std::unique_ptr<ConnectionSlot>> conns_;
  std::atomic<int> active_connections_{0};
  std::atomic<int> next_conn_id_{0};
  std::atomic<std::uint64_t> next_request_id_{0};

  // Rolled-up counters (mirrored into the obs registry as they change).
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> requests_failed_{0};
  std::atomic<std::uint64_t> reads_mapped_total_{0};
  std::atomic<std::uint64_t> reads_total_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> evictions_total_{0};
  std::atomic<std::uint64_t> corrupt_frames_total_{0};
  std::atomic<std::uint64_t> deadline_abandoned_total_{0};
};

}  // namespace gnumap::serve
