// The fleet shard router: one genome split across backend gnumapd shards.
//
// The router speaks the ordinary serving protocol to clients (a client
// cannot tell a router from a single daemon) and the shard-partial
// dialect to its backends.  For each MAP request it fans every decoded
// read batch out as SHARD_READS frames, gathers one RESULT_PARTIAL per
// shard, merges the per-read candidate lists in seeder order, truncates
// the merged list to max_candidates exactly as a single daemon's seeder
// would, and only then runs the per-read posterior epilogue
// (finalize_scored_sites) and the shared accumulate/SAM/call_snps tail —
// which is what makes the router's TSV and SAM output byte-identical to a
// single daemon serving the whole genome.
//
// Renormalization rule (DESIGN.md §13): shards ship raw per-candidate
// log-likelihoods, never per-shard posteriors.  The posterior softmax is
// computed once, on the router, over the merged candidate list — so a
// read whose candidates straddle a shard boundary weighs them exactly as
// a single daemon would.  Summing per-shard softmaxes would double-count
// the normalizer; merging logs first is the only order that commutes.
//
// Backend faults surface as typed ERROR frames naming the shard; a BUSY
// from any shard is forwarded to the client (largest retry hint wins) and
// the request aborts before any read is uploaded, so the client's
// ordinary retry/backoff machinery (PR 6) applies unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"

namespace gnumap::fleet {

/// One backend shard daemon.
struct ShardBackend {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (see RouterServer::port())
  bool bind_any = false;
  /// Per-frame socket deadline for handshakes and uploads.
  int io_timeout_ms = 30'000;
  /// Deadline while waiting for a shard's RESULT_PARTIAL (scoring time).
  int shard_timeout_ms = 300'000;
  std::uint32_t max_frame_bytes = serve::kDefaultMaxFrameBytes;
  std::vector<ShardBackend> backends;
};

/// Scatter/gather router over `backends`.  The genome reference must
/// outlive the server; it is used only for the SAM header/records and SNP
/// calling — the router never builds a HashIndex.
class RouterServer {
 public:
  RouterServer(const Genome& genome, const PipelineConfig& config,
               const RouterOptions& options);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  void start();
  void wait();
  void run();  ///< start() + wait()
  void request_stop();
  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

  std::uint16_t port() const;

 private:
  void accept_loop();
  void handle_connection(serve::Socket sock, int conn_id);
  /// One MAP transaction; false closes the connection afterwards.
  bool handle_map(serve::Socket& sock, const serve::MapBeginInfo& begin,
                  int conn_id, std::uint64_t req_id);
  void send_error(serve::Socket& sock, serve::WireErrorCode code,
                  const std::string& msg);

  const Genome& genome_;
  PipelineConfig config_;
  RouterOptions options_;
  std::unique_ptr<serve::Listener> listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> next_conn_id_{0};
  std::atomic<std::uint64_t> next_req_id_{0};
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace gnumap::fleet
