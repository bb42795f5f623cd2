#include "gnumap/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <istream>
#include <sstream>
#include <thread>
#include <utility>

#include "gnumap/fleet/partials.hpp"
#include "gnumap/io/chunk_stream.hpp"
#include "gnumap/io/quality.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/obs/build_info.hpp"
#include "gnumap/obs/json_util.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/serve/admin_http.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::serve {

namespace {

/// Serve-side metric handles, resolved once (registry lookups are
/// mutex-protected; updates are plain atomics).
struct ServeMetrics {
  obs::Histogram& request_seconds;
  obs::Gauge& queue_depth;
  obs::Gauge& admitted_peak;
  obs::Counter& requests_total;
  obs::Counter& rejected_total;
  obs::Counter& errors_total;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Counter& connections_total;
  obs::Gauge& active_connections;
  obs::Counter& evictions_total;
  obs::Counter& corrupt_frames_total;
  obs::Counter& deadline_abandoned_total;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics{
      obs::registry().histogram(
          "gnumap_serve_request_seconds", obs::default_time_buckets(),
          "Wall-clock latency of MAP requests (MAP_BEGIN to MAP_DONE)"),
      obs::registry().gauge(
          "gnumap_serve_queue_depth",
          "Reads currently admitted into the serving window"),
      obs::registry().gauge(
          "gnumap_serve_admitted_reads_peak",
          "High-water mark of reads admitted into the serving window"),
      obs::registry().counter("gnumap_serve_requests_total",
                              "MAP requests accepted for processing"),
      obs::registry().counter(
          "gnumap_serve_rejected_total",
          "MAP requests refused with BUSY by admission control"),
      obs::registry().counter(
          "gnumap_serve_errors_total",
          "Requests or connections terminated with a typed ERROR frame"),
      obs::registry().counter("gnumap_serve_bytes_rx_total",
                              "Frame payload bytes received from clients"),
      obs::registry().counter("gnumap_serve_bytes_tx_total",
                              "Frame payload bytes sent to clients"),
      obs::registry().counter("gnumap_serve_connections_total",
                              "Client connections accepted"),
      obs::registry().gauge("gnumap_serve_active_connections",
                            "Currently open client connections"),
      obs::registry().counter(
          "gnumap_serve_evictions_total",
          "Connections evicted by the watchdog or a budget"),
      obs::registry().counter(
          "gnumap_serve_corrupt_frames_total",
          "Frames rejected for a CRC mismatch"),
      obs::registry().counter(
          "gnumap_serve_deadline_abandoned_total",
          "Requests abandoned because their deadline expired"),
  };
  return metrics;
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// streambuf that flushes its buffer to the peer as frames of `type`
/// whenever it passes kChunkBytes (and on sync()).  Send failures are
/// latched instead of thrown: ostream formatting must not unwind through
/// the pipeline's drain loop, and the failure still surfaces — the read
/// side of a dead socket raises in the decoder, and handle_map rethrows
/// the latched error after run() returns.
class FrameSinkBuf final : public std::streambuf {
 public:
  FrameSinkBuf(Socket& sock, FrameType type, int timeout_ms,
               std::atomic<std::uint64_t>& bytes_sent,
               std::uint64_t* request_bytes = nullptr,
               const std::atomic<bool>* cancel = nullptr)
      : sock_(sock),
        type_(type),
        timeout_ms_(timeout_ms),
        bytes_sent_(bytes_sent),
        request_bytes_(request_bytes),
        cancel_(cancel) {}

  /// Sends any buffered bytes as a final (possibly short) frame.
  void flush_frames() {
    if (error_) {
      buf_.clear();  // the peer is gone; don't buffer without bound
      return;
    }
    if (buf_.empty()) return;
    try {
      write_frame(sock_, type_, buf_, timeout_ms_, cancel_);
      bytes_sent_.fetch_add(buf_.size(), std::memory_order_relaxed);
      serve_metrics().bytes_tx.inc(buf_.size());
      if (request_bytes_ != nullptr) *request_bytes_ += buf_.size();
    } catch (...) {
      error_ = std::current_exception();
    }
    buf_.clear();
  }

  void rethrow_if_failed() const {
    if (error_) std::rethrow_exception(error_);
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      buf_.push_back(traits_type::to_char_type(ch));
      if (buf_.size() >= kChunkBytes) flush_frames();
    }
    return error_ ? traits_type::eof() : ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    buf_.append(s, static_cast<std::size_t>(n));
    if (buf_.size() >= kChunkBytes) flush_frames();
    return n;
  }

  int sync() override {
    flush_frames();
    return error_ ? -1 : 0;
  }

 private:
  Socket& sock_;
  FrameType type_;
  int timeout_ms_;
  std::atomic<std::uint64_t>& bytes_sent_;
  std::uint64_t* request_bytes_;  ///< per-request digest counter (optional)
  const std::atomic<bool>* cancel_;
  std::string buf_;
  std::exception_ptr error_;
};

std::string u64_kv(const std::string& key, std::uint64_t value) {
  return key + "=" + std::to_string(value) + "\n";
}

std::string dbl_kv(const std::string& key, double value) {
  return key + "=" + std::to_string(value) + "\n";
}

/// Closing a socket with unread bytes pending makes the kernel send RST,
/// which can destroy a just-queued ERROR frame before the peer reads it.
/// Half-close instead and drain what the peer already sent (bounded), so
/// the typed error is actually deliverable.
void linger_close(Socket& sock) {
  try {
    sock.shutdown_write();
    char discard[4096];
    Timer elapsed;
    while (elapsed.seconds() < 2.0) {
      if (sock.recv_some(discard, sizeof discard, 500) == 0) break;
    }
  } catch (const WireError&) {
    // Timeout or reset: the peer had its chance.
  }
  sock.close();
}

}  // namespace

struct MappingServer::ConnectionSlot {
  int conn_id = -1;
  std::string peer = "?";
  std::thread thread;
  std::atomic<bool> done{false};
  /// Cancels every socket operation on this connection (threaded into the
  /// send/recv poll loops); set by the watchdog for drain and evictions.
  std::atomic<bool> cancel{false};
  /// Why cancel tripped: 0 while only draining, else a WireErrorCode
  /// (kEvicted for budget evictions, kTimeout for abandoned deadlines).
  std::atomic<int> evict_code{0};
  /// True while a MAP request is in flight: a drain must let it finish.
  std::atomic<bool> in_request{false};
  /// Steady-clock ms when the in-flight request must be done (0 = none);
  /// the watchdog evicts past it even when the handler is wedged in send.
  std::atomic<std::int64_t> deadline_at_ms{0};
  /// Frame payload bytes received on this connection (budget accounting).
  std::atomic<std::uint64_t> rx_bytes{0};
  /// Connection lifetime (budget accounting); started at accept.
  Timer age;
};

namespace {

fleet::ShardSpec shard_spec(const ServeOptions& options) {
  return {options.shard_index, options.shard_count,
          options.shard_max_read_len};
}

}  // namespace

MappingServer::MappingServer(const Genome& genome,
                             const PipelineConfig& config,
                             const ServeOptions& options)
    : MappingServer(
          fleet::ResidentGenome::build(genome, config, shard_spec(options)),
          options) {}

MappingServer::MappingServer(const std::string& index_path,
                             const PipelineConfig& config,
                             const ServeOptions& options)
    : MappingServer(
          fleet::ResidentGenome::load(index_path, config, shard_spec(options)),
          options) {}

MappingServer::MappingServer(fleet::ResidentGenome genome,
                             const ServeOptions& options)
    : options_(options),
      genome_(std::move(genome)),
      listener_(std::make_unique<Listener>(options.port, options.bind_any)),
      admission_(options.admission_reads, options.per_connection_reads),
      digests_(options.digest_ring_capacity) {
  serve_metrics();  // register the gnumap_serve_* series up front
  if (!options_.fault_plan.empty()) {
    listener_->set_fault_injector(make_injector(options_.fault_plan));
    GNUMAP_LOG(kWarn) << "gnumapd: wire fault plan active: "
                      << options_.fault_plan.describe();
  }
  if (options_.admin_port >= 0) {
    admin_ = std::make_unique<AdminHttpServer>(*this, options_.admin_port,
                                               options_.bind_any);
    GNUMAP_LOG(kInfo) << "gnumapd: admin endpoint on port " << admin_->port();
  }
  const MappingSession& session = genome_.session();
  GNUMAP_LOG(kInfo) << "gnumapd: index resident ("
                    << session.index().num_entries() << " entries over "
                    << session.genome().num_bases() << " bases, "
                    << genome_.resident_bytes() << " bytes, "
                    << genome_.load_seconds()
                    << " s load), listening on port " << listener_->port();
}

MappingServer::~MappingServer() {
  request_stop();
  wait();
}

std::uint16_t MappingServer::port() const { return listener_->port(); }

int MappingServer::admin_port() const {
  return admin_ ? admin_->port() : -1;
}

std::uint64_t MappingServer::request_window_reads() const {
  const auto& config = genome_.session().config();
  const std::uint64_t threads =
      static_cast<std::uint64_t>(std::max(1, config.threads));
  const std::uint64_t queue_depth =
      std::max<std::uint64_t>(1, config.queue_depth);
  const std::uint64_t batch = std::max<std::uint32_t>(1, config.stream_batch);
  // The staged pipeline's documented in-flight peak bound (pipeline.hpp).
  return (2 * (queue_depth + threads) + 1) * batch;
}

std::uint32_t MappingServer::busy_retry_hint() const {
  const std::uint64_t window = std::max<std::uint64_t>(
      1, request_window_reads());
  // One window ≈ one queued request: the deeper the queue, the longer the
  // suggested backoff, so a saturated server spreads retries out instead
  // of synchronizing a thundering herd.
  const std::uint64_t depth = admission_.admitted() / window;
  const std::uint64_t hint = options_.busy_retry_ms * (depth + 1);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      hint, std::max(options_.busy_retry_ms, options_.busy_retry_max_ms)));
}

void MappingServer::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  if (admin_) admin_->start();
}

void MappingServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited; no new slots can appear.  Handler threads
  // finish their in-flight request (or are cancelled by the watchdog once
  // idle) and the watchdog reaps them; wait for the roster to empty.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (conns_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // The admin endpoint answers until the drain completes, so an operator
  // can watch /statusz while connections finish; stop it last.
  if (admin_) admin_->stop();
}

void MappingServer::run() {
  start();
  wait();
}

void MappingServer::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
}

ServerStats MappingServer::stats() const {
  ServerStats s;
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.reads_mapped_total = reads_mapped_total_.load(std::memory_order_relaxed);
  s.reads_total = reads_total_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.evictions_total = evictions_total_.load(std::memory_order_relaxed);
  s.corrupt_frames_total =
      corrupt_frames_total_.load(std::memory_order_relaxed);
  s.deadline_abandoned_total =
      deadline_abandoned_total_.load(std::memory_order_relaxed);
  return s;
}

std::string MappingServer::stats_text() const {
  const ServerStats s = stats();
  std::string text;
  text += u64_kv("protocol_version", kProtocolVersion);
  text += u64_kv("genome_bases", genome_.session().genome().num_bases());
  text += u64_kv("index_entries", genome_.session().index().num_entries());
  text += u64_kv("resident_bytes", genome_.resident_bytes());
  text += dbl_kv("index_load_seconds", genome_.load_seconds());
  text += u64_kv("admission_capacity_reads", admission_.capacity());
  text += u64_kv("admitted_reads", admission_.admitted());
  text += u64_kv("admitted_reads_peak", admission_.peak());
  text += u64_kv("request_window_reads", request_window_reads());
  text += u64_kv("active_connections",
                 static_cast<std::uint64_t>(
                     active_connections_.load(std::memory_order_relaxed)));
  text += u64_kv("connections_total", s.connections_total);
  text += u64_kv("requests_total", s.requests_total);
  text += u64_kv("requests_rejected", s.requests_rejected);
  text += u64_kv("requests_failed", s.requests_failed);
  text += u64_kv("reads_total", s.reads_total);
  text += u64_kv("reads_mapped_total", s.reads_mapped_total);
  text += u64_kv("bytes_received", s.bytes_received);
  text += u64_kv("bytes_sent", s.bytes_sent);
  text += u64_kv("evictions_total", s.evictions_total);
  text += u64_kv("corrupt_frames_total", s.corrupt_frames_total);
  text += u64_kv("deadline_abandoned_total", s.deadline_abandoned_total);
  text += u64_kv("digest_requests", digests_.total_recorded());
  text += u64_kv("digest_ring_capacity", digests_.capacity());
  const auto slowest = digests_.slowest(1);
  text += dbl_kv("slowest_recent_ms",
                 slowest.empty() ? 0.0 : slowest.front().total_seconds * 1e3);
  return text;
}

std::vector<MappingServer::ConnectionInfo> MappingServer::connection_table()
    const {
  std::vector<ConnectionInfo> table;
  std::lock_guard<std::mutex> lock(conns_mutex_);
  table.reserve(conns_.size());
  for (const auto& slot : conns_) {
    if (slot->done.load(std::memory_order_acquire)) continue;
    ConnectionInfo info;
    info.conn_id = slot->conn_id;
    info.peer = slot->peer;
    info.in_request = slot->in_request.load(std::memory_order_relaxed);
    info.cancelled = slot->cancel.load(std::memory_order_relaxed);
    info.rx_bytes = slot->rx_bytes.load(std::memory_order_relaxed);
    info.age_seconds = slot->age.seconds();
    table.push_back(std::move(info));
  }
  return table;
}

std::string MappingServer::statusz_json() const {
  using obs::detail::json_number;
  using obs::detail::json_string;
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const ServerStats s = stats();
  const obs::BuildInfo& build = obs::build_info();
  const MappingSession& session = genome_.session();

  std::string out = "{\n";
  out += "  \"build\": {\"git_sha\": " + json_string(build.git_sha) +
         ", \"build_type\": " + json_string(build.build_type) +
         ", \"compiler\": " + json_string(build.compiler) +
         ", \"host\": " + json_string(obs::host_name()) +
         ", \"num_cpus\": " + std::to_string(obs::num_cpus()) + "},\n";
  out += "  \"server\": {\"port\": " + std::to_string(port()) +
         ", \"admin_port\": " + std::to_string(admin_port()) +
         ", \"protocol_version\": " + u64(kProtocolVersion) +
         ", \"uptime_seconds\": " + json_number(uptime_.seconds()) +
         ", \"draining\": " + (stopping() ? "true" : "false") + "},\n";
  out += "  \"session\": {\"genome_bases\": " +
         u64(session.genome().num_bases()) +
         ", \"index_entries\": " + u64(session.index().num_entries()) +
         ", \"resident_bytes\": " + u64(genome_.resident_bytes()) +
         ", \"index_load_seconds\": " + json_number(genome_.load_seconds()) +
         ", \"threads\": " + std::to_string(session.config().threads) +
         ", \"stream_batch\": " +
         std::to_string(session.config().stream_batch) + "},\n";
  out += "  \"admission\": {\"capacity_reads\": " + u64(admission_.capacity()) +
         ", \"admitted_reads\": " + u64(admission_.admitted()) +
         ", \"admitted_reads_peak\": " + u64(admission_.peak()) +
         ", \"request_window_reads\": " + u64(request_window_reads()) + "},\n";
  out += "  \"counters\": {\"connections_total\": " + u64(s.connections_total) +
         ", \"requests_total\": " + u64(s.requests_total) +
         ", \"requests_rejected\": " + u64(s.requests_rejected) +
         ", \"requests_failed\": " + u64(s.requests_failed) +
         ", \"reads_total\": " + u64(s.reads_total) +
         ", \"reads_mapped_total\": " + u64(s.reads_mapped_total) +
         ", \"bytes_received\": " + u64(s.bytes_received) +
         ", \"bytes_sent\": " + u64(s.bytes_sent) +
         ", \"evictions_total\": " + u64(s.evictions_total) +
         ", \"corrupt_frames_total\": " + u64(s.corrupt_frames_total) +
         ", \"deadline_abandoned_total\": " + u64(s.deadline_abandoned_total) +
         "},\n";
  out += "  \"digests\": {\"recorded\": " + u64(digests_.total_recorded()) +
         ", \"ring_capacity\": " + u64(digests_.capacity()) + "},\n";
  out += "  \"connections\": [";
  const auto table = connection_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const ConnectionInfo& c = table[i];
    if (i != 0) out += ", ";
    out += "{\"conn_id\": " + std::to_string(c.conn_id) +
           ", \"peer\": " + json_string(c.peer) +
           ", \"state\": " +
           json_string(c.cancelled ? "cancelling"
                                   : (c.in_request ? "in_request" : "idle")) +
           ", \"rx_bytes\": " + u64(c.rx_bytes) +
           ", \"age_seconds\": " + json_number(c.age_seconds) + "}";
  }
  out += "]\n}\n";
  return out;
}

std::string MappingServer::health_text() const {
  const bool draining = stopping();
  const int active = active_connections_.load(std::memory_order_relaxed);
  const std::uint64_t window = request_window_reads();
  // Ready = a new connection could be accepted AND a fresh request window
  // would fit the admission budget right now.
  const bool ready = !draining && active < options_.max_connections &&
                     admission_.admitted() + window <= admission_.capacity();
  std::string text;
  text += u64_kv("ready", ready ? 1 : 0);
  text += u64_kv("draining", draining ? 1 : 0);
  text += u64_kv("active_connections", static_cast<std::uint64_t>(active));
  text += u64_kv("max_connections",
                 static_cast<std::uint64_t>(options_.max_connections));
  text += u64_kv("admitted_reads", admission_.admitted());
  text += u64_kv("admission_capacity_reads", admission_.capacity());
  text += u64_kv("request_window_reads", window);
  text += u64_kv("busy_retry_hint_ms", busy_retry_hint());
  text += u64_kv("protocol_version", kProtocolVersion);
  text += u64_kv("uptime_seconds",
                 static_cast<std::uint64_t>(uptime_.seconds()));
  return text;
}

void MappingServer::watchdog_loop() {
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        ConnectionSlot& slot = **it;
        if (slot.done.load(std::memory_order_acquire)) {
          if (slot.thread.joinable()) slot.thread.join();
          it = conns_.erase(it);
          continue;
        }
        if (!slot.cancel.load()) {
          const bool in_request = slot.in_request.load();
          const std::int64_t deadline = slot.deadline_at_ms.load();
          if (options_.max_connection_seconds > 0.0 &&
              slot.age.seconds() > options_.max_connection_seconds) {
            slot.evict_code.store(
                static_cast<int>(WireErrorCode::kEvicted));
            slot.cancel.store(true);
            evictions_total_.fetch_add(1, std::memory_order_relaxed);
            serve_metrics().evictions_total.inc();
            GNUMAP_LOG(kInfo) << "serve: conn " << slot.conn_id << " (peer "
                              << slot.peer << ") evicted: lifetime budget "
                              << options_.max_connection_seconds
                              << " s exhausted";
          } else if (in_request && deadline > 0 && steady_ms() > deadline) {
            // The handler may be wedged in a blocking send (peer stopped
            // reading results); only this thread can abandon the request.
            slot.evict_code.store(
                static_cast<int>(WireErrorCode::kTimeout));
            slot.cancel.store(true);
            evictions_total_.fetch_add(1, std::memory_order_relaxed);
            deadline_abandoned_total_.fetch_add(1, std::memory_order_relaxed);
            serve_metrics().evictions_total.inc();
            serve_metrics().deadline_abandoned_total.inc();
            GNUMAP_LOG(kInfo) << "serve: conn " << slot.conn_id << " (peer "
                              << slot.peer
                              << ") request deadline expired; abandoning";
          } else if (!in_request && stopping()) {
            slot.cancel.store(true);  // drain: close idle connections
          }
        }
        ++it;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void MappingServer::accept_loop() {
  while (!stopping()) {
    auto sock = listener_->accept(200, &stop_);
    if (!sock.has_value()) continue;
    if (!options_.fault_plan.empty()) {
      // Fresh injector per connection: the same plan batters every
      // connection identically, so chaos drills are reproducible.
      sock->set_fault_injector(make_injector(options_.fault_plan));
    }

    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Typed refusal, not a silent close: the client can back off.  The
      // peer's HELLO is still unread, so a plain close would RST the queued
      // BUSY frame away — linger_close drains it first.
      try {
        write_frame(*sock, FrameType::kBusy,
                    encode_busy(busy_retry_hint(),
                                "connection limit reached"),
                    options_.io_timeout_ms);
      } catch (const WireError&) {
      }
      linger_close(*sock);
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().rejected_total.inc();
      continue;
    }

    const int conn_id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().connections_total.inc();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().active_connections.set(
        static_cast<double>(active_connections_.load()));

    auto slot = std::make_unique<ConnectionSlot>();
    slot->conn_id = conn_id;
    slot->peer = sock->peer_address();
    ConnectionSlot* raw = slot.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(slot));
    }
    raw->thread = std::thread(
        [this, raw](Socket conn) {
          handle_connection(std::move(conn), *raw);
          admission_.forget_connection(raw->conn_id);
          active_connections_.fetch_sub(1, std::memory_order_relaxed);
          serve_metrics().active_connections.set(
              static_cast<double>(active_connections_.load()));
          raw->done.store(true, std::memory_order_release);
        },
        std::move(*sock));
  }
  listener_->close();
}

void MappingServer::send_error(Socket& sock, WireErrorCode code,
                               const std::string& msg) {
  serve_metrics().errors_total.inc();
  if (code == WireErrorCode::kCorrupt) {
    corrupt_frames_total_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().corrupt_frames_total.inc();
  }
  try {
    write_frame(sock, FrameType::kError, encode_error(code, msg),
                options_.io_timeout_ms);
  } catch (const WireError&) {
    // Best effort: the peer may already be gone.
  }
}

std::pair<WireErrorCode, std::string> MappingServer::cancel_reason(
    const ConnectionSlot& slot) const {
  const auto code = static_cast<WireErrorCode>(slot.evict_code.load());
  if (code == WireErrorCode::kEvicted) {
    return {code, "connection evicted: lifetime budget (" +
                      std::to_string(options_.max_connection_seconds) +
                      " s) exhausted"};
  }
  if (code == WireErrorCode::kTimeout) {
    return {code, "request deadline expired; server abandoned the request"};
  }
  return {WireErrorCode::kShuttingDown, "server is draining"};
}

void MappingServer::handle_connection(Socket sock, ConnectionSlot& slot) {
  // Context prefix for every typed error and log line this connection can
  // produce: chaos-run failures must be attributable to a peer.
  const std::string who = "[peer " + slot.peer + " conn " +
                          std::to_string(slot.conn_id) + "] ";
  try {
    // Handshake: HEALTH probes are answered even before HELLO (fleet
    // supervisors need no handshake), then exactly one HELLO carrying this
    // build's protocol version.
    std::optional<Frame> hello;
    for (;;) {
      hello = read_frame(sock, options_.max_frame_bytes,
                         options_.io_timeout_ms, &slot.cancel);
      if (!hello.has_value()) return;
      if (hello->type != FrameType::kHealth) break;
      write_frame(sock, FrameType::kHealthOk, health_text(),
                  options_.io_timeout_ms, &slot.cancel);
    }
    if (hello->type != FrameType::kHello) {
      send_error(sock, WireErrorCode::kProtocol,
                 who + "expected HELLO as the first frame");
      linger_close(sock);
      return;
    }
    const auto [version, client_name] = decode_hello(hello->payload);
    if (version != kProtocolVersion) {
      send_error(sock, WireErrorCode::kBadVersion,
                 who + "unsupported protocol version " +
                     std::to_string(version) + " (server speaks " +
                     std::to_string(kProtocolVersion) + ")");
      linger_close(sock);
      return;
    }
    const MappingSession& session = genome_.session();
    write_frame(sock, FrameType::kHelloOk,
                encode_hello(kProtocolVersion,
                             "gnumapd genome_bases=" +
                                 std::to_string(session.genome().num_bases()) +
                                 " index_entries=" +
                                 std::to_string(session.index().num_entries())),
                options_.io_timeout_ms, &slot.cancel);
    GNUMAP_LOG(kDebug) << "serve: conn " << slot.conn_id << " handshake ok ("
                       << client_name << ")";

    // Request loop.  Waiting for the next request honours the cancel flag
    // (the watchdog trips it on drain, eviction, or an expired deadline);
    // a request in progress runs to completion under its own deadline.
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = read_frame(sock, options_.max_frame_bytes,
                           /*timeout_ms=*/0, &slot.cancel);
      } catch (const WireError& e) {
        if (e.code() == WireErrorCode::kShuttingDown) {
          const auto [code, msg] = cancel_reason(slot);
          send_error(sock, code, who + msg);
        } else if (e.code() != WireErrorCode::kClosed) {
          // e.g. an oversized or corrupt frame header: answer with the
          // typed error and let the peer read it before the close.
          send_error(sock, e.code(), who + e.what());
          linger_close(sock);
        }
        return;
      }
      if (!frame.has_value()) return;  // clean disconnect

      switch (frame->type) {
        case FrameType::kMapBegin: {
          const MapBeginInfo begin = decode_map_begin(frame->payload);
          if (!handle_map(sock, slot, begin)) {
            linger_close(sock);
            return;
          }
          break;
        }
        case FrameType::kStats:
          write_frame(sock, FrameType::kStatsOk, stats_text(),
                      options_.io_timeout_ms, &slot.cancel);
          break;
        case FrameType::kHealth:
          write_frame(sock, FrameType::kHealthOk, health_text(),
                      options_.io_timeout_ms, &slot.cancel);
          break;
        case FrameType::kShutdown:
          write_frame(sock, FrameType::kShutdownOk, "",
                      options_.io_timeout_ms);
          GNUMAP_LOG(kInfo) << "serve: shutdown requested by conn "
                            << slot.conn_id;
          request_stop();
          return;
        default:
          send_error(sock, WireErrorCode::kProtocol,
                     who + "unexpected frame type " +
                         std::to_string(static_cast<int>(frame->type)));
          linger_close(sock);
          return;
      }
    }
  } catch (const WireError& e) {
    // Transport failure or malformed traffic: answer if possible, close.
    if (e.code() == WireErrorCode::kShuttingDown &&
        slot.cancel.load(std::memory_order_relaxed)) {
      const auto [code, msg] = cancel_reason(slot);
      send_error(sock, code, who + msg);
    } else {
      send_error(sock, e.code(), who + e.what());
    }
    linger_close(sock);
  } catch (const std::exception& e) {
    send_error(sock, WireErrorCode::kInternal, who + e.what());
    linger_close(sock);
  }
}

bool MappingServer::handle_map(Socket& sock, ConnectionSlot& slot,
                               const MapBeginInfo& begin) {
  const std::uint64_t req_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint8_t flags = begin.flags;
  const std::uint32_t client_deadline_ms = begin.deadline_ms;
  std::string who = "[peer " + slot.peer + " conn " +
                    std::to_string(slot.conn_id) + " req " +
                    std::to_string(req_id);
  if (begin.trace_id != 0) who += " trace " + trace_id_hex(begin.trace_id);
  who += "] ";

  // The digest outlives every outcome below: finish_digest records it in
  // the recent-requests ring and emits the structured request_digest line
  // whether the request completed, was refused BUSY, or died with an error.
  RequestDigest digest;
  digest.request_id = req_id;
  digest.conn_id = slot.conn_id;
  digest.trace_id = begin.trace_id;
  Timer request_timer;
  const auto finish_digest = [&](std::uint16_t error_code) {
    digest.error_code = error_code;
    digest.total_seconds = request_timer.seconds();
    digests_.push(digest);
    GNUMAP_LOG(kInfo) << "serve: request_digest conn=" << digest.conn_id
                      << " req=" << digest.request_id << " trace="
                      << (digest.trace_id != 0 ? trace_id_hex(digest.trace_id)
                                               : "-")
                      << " error=" << digest.error_code
                      << " total_s=" << digest.total_seconds
                      << " admission_wait_s=" << digest.admission_wait_seconds
                      << " upload_wait_s=" << digest.upload_wait_seconds
                      << " decode_s=" << digest.decode_seconds
                      << " map_stage_s=" << digest.map_stage_seconds
                      << " format_s=" << digest.format_seconds
                      << " splice_s=" << digest.splice_seconds
                      << " call_s=" << digest.call_seconds
                      << " upload_bytes=" << digest.upload_bytes
                      << " result_bytes=" << digest.result_bytes
                      << " reads=" << digest.reads_total
                      << " mapped=" << digest.reads_mapped
                      << " calls=" << digest.calls
                      << " phmm_cells=" << digest.phmm_cells
                      << " gcups=" << digest.gcups
                      << " fp32_recomputed=" << digest.fp32_recomputed;
  };

  if (stopping()) {
    // Refused before admission: no digest — the ring records requests that
    // actually entered the pipeline (BUSY refusals likewise stay out).
    send_error(sock, WireErrorCode::kShuttingDown,
               who + "server is draining");
    return false;
  }

  // Admission: reserve this request's worst-case in-flight reads, or
  // answer BUSY (connection stays open so the client can retry).
  Timer admission_timer;
  const std::uint64_t window = request_window_reads();
  if (!admission_.try_acquire(slot.conn_id, window)) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().rejected_total.inc();
    write_frame(sock, FrameType::kBusy,
                encode_busy(busy_retry_hint(),
                            "admission window full (" +
                                std::to_string(admission_.admitted()) + "/" +
                                std::to_string(admission_.capacity()) +
                                " reads in flight)"),
                options_.io_timeout_ms, &slot.cancel);
    return true;
  }
  digest.admission_wait_seconds = admission_timer.seconds();
  serve_metrics().queue_depth.set(static_cast<double>(admission_.admitted()));
  serve_metrics().admitted_peak.set(static_cast<double>(admission_.peak()));

  struct Release {
    MappingServer& server;
    int conn_id;
    std::uint64_t window;
    ~Release() {
      server.admission_.release(conn_id, window);
      serve_metrics().queue_depth.set(
          static_cast<double>(server.admission_.admitted()));
    }
  } release{*this, slot.conn_id, window};

  // Effective deadline: the tighter of the server's own cap and what the
  // client asked for in MAP_BEGIN (0 = no client deadline).
  int effective_timeout_ms = options_.request_timeout_ms;
  bool client_tighter = false;
  if (client_deadline_ms > 0 &&
      (effective_timeout_ms <= 0 ||
       static_cast<std::int64_t>(client_deadline_ms) <
           static_cast<std::int64_t>(effective_timeout_ms))) {
    effective_timeout_ms = static_cast<int>(client_deadline_ms);
    client_tighter = true;
  }

  // Publish the in-flight request to the watchdog: the deadline holds even
  // when this thread is wedged in a blocking send.
  struct RequestScope {
    ConnectionSlot& slot;
    RequestScope(ConnectionSlot& s, int deadline_ms) : slot(s) {
      slot.deadline_at_ms.store(
          deadline_ms > 0 ? steady_ms() + deadline_ms : 0);
      slot.in_request.store(true);
    }
    ~RequestScope() {
      slot.in_request.store(false);
      slot.deadline_at_ms.store(0);
    }
  } scope{slot, effective_timeout_ms};

  requests_total_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests_total.inc();
  const bool want_sam = (flags & kFlagWantSam) != 0;
  const int phred_offset = (flags & kFlagPhred64) != 0 ? kPhred64 : kPhred33;

  obs::TraceSpan span("serve_request", "serve", "conn",
                      static_cast<double>(slot.conn_id), "req",
                      static_cast<double>(req_id));
  // Tag the span with the client's trace id so
  // scripts/merge_traces.py can splice client and server timelines.
  span.set_id(begin.trace_id);

  try {
    if ((flags & kFlagShardPartials) != 0) {
      // Shard-partial mode: the peer is a fleet router, not an end client.
      // No SAM, no TSV, no epilogue — just raw candidates per read.
      if (want_sam) {
        throw WireError(WireErrorCode::kProtocol,
                        "shard-partials requests cannot also request SAM");
      }
      MapStats shard_stats;
      handle_shard_map(sock, slot, shard_stats, effective_timeout_ms);
      reads_total_.fetch_add(shard_stats.reads_total,
                             std::memory_order_relaxed);
      digest.reads_total = shard_stats.reads_total;
      digest.phmm_cells = shard_stats.dp_cells;
      serve_metrics().request_seconds.observe(request_timer.seconds());
      finish_digest(0);
      return true;
    }

    write_frame(sock, FrameType::kMapGo, "", options_.io_timeout_ms,
                &slot.cancel);

    // The wire -> pipeline seam: READS_CHUNK frames are pulled off the
    // socket only as the pipeline's decoder wants more bytes, so the
    // BatchQueue's backpressure reaches all the way back to the client.
    bool saw_end = false;
    ChunkSourceBuf chunk_buf([&](std::string& chunk) -> bool {
      if (saw_end) return false;
      // Upload accounting: this lambda runs on the pipeline's decoder
      // thread, which run() joins before returning — the handler thread
      // reads the digest fields only after that, so plain writes are safe.
      Timer upload_timer;
      int timeout = options_.io_timeout_ms;
      bool deadline_bound = false;
      if (effective_timeout_ms > 0) {
        const int remaining =
            effective_timeout_ms -
            static_cast<int>(request_timer.seconds() * 1000.0);
        if (remaining <= 0) {
          deadline_abandoned_total_.fetch_add(1, std::memory_order_relaxed);
          serve_metrics().deadline_abandoned_total.inc();
          throw WireError(WireErrorCode::kTimeout,
                          "request exceeded the " +
                              std::to_string(effective_timeout_ms) + " ms " +
                              (client_tighter ? "client-requested"
                                              : "server") +
                              " deadline");
        }
        if (remaining < timeout) {
          timeout = remaining;
          deadline_bound = true;
        }
      }
      std::optional<Frame> frame;
      try {
        frame = read_frame(sock, options_.max_frame_bytes, timeout,
                           &slot.cancel);
      } catch (const WireError& e) {
        // When the request deadline (not the per-frame io deadline) was
        // the binding bound, a silent peer is abandoned work: count it and
        // name the deadline in the typed error.
        if (!deadline_bound || e.code() != WireErrorCode::kTimeout) throw;
        deadline_abandoned_total_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().deadline_abandoned_total.inc();
        throw WireError(WireErrorCode::kTimeout,
                        "request exceeded the " +
                            std::to_string(effective_timeout_ms) + " ms " +
                            (client_tighter ? "client-requested" : "server") +
                            " deadline");
      }
      digest.upload_wait_seconds += upload_timer.seconds();
      if (!frame.has_value()) {
        throw WireError(WireErrorCode::kClosed,
                        "peer disconnected mid-request");
      }
      if (frame->type == FrameType::kMapEnd) {
        saw_end = true;
        return false;
      }
      if (frame->type != FrameType::kReadsChunk) {
        throw WireError(WireErrorCode::kProtocol,
                        "expected READS_CHUNK or MAP_END, got type " +
                            std::to_string(static_cast<int>(frame->type)));
      }
      digest.upload_bytes += frame->payload.size();
      bytes_received_.fetch_add(frame->payload.size(),
                                std::memory_order_relaxed);
      serve_metrics().bytes_rx.inc(frame->payload.size());
      const std::uint64_t conn_rx =
          slot.rx_bytes.fetch_add(frame->payload.size(),
                                  std::memory_order_relaxed) +
          frame->payload.size();
      if (options_.max_connection_bytes > 0 &&
          conn_rx > options_.max_connection_bytes) {
        evictions_total_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().evictions_total.inc();
        throw WireError(WireErrorCode::kEvicted,
                        "connection exceeded its " +
                            std::to_string(options_.max_connection_bytes) +
                            "-byte receive budget");
      }
      chunk = std::move(frame->payload);
      return true;
    });
    std::istream fastq_text(&chunk_buf);
    // istream operations swallow streambuf exceptions into badbit, which
    // getline reports as plain EOF — a WireError thrown mid-upload (timeout,
    // oversized frame, disconnect) would silently truncate the batch and be
    // answered with MAP_DONE.  With badbit in the exception mask, getline
    // rethrows the original exception and the typed-error paths below apply.
    fastq_text.exceptions(std::ios::badbit);
    const MappingSession& session = genome_.session();
    FastqReadStream reads(fastq_text, session.config().stream_batch,
                          phred_offset, "<wire>");

    FrameSinkBuf sam_sink(sock, FrameType::kResultSam,
                          options_.io_timeout_ms, bytes_sent_,
                          &digest.result_bytes, &slot.cancel);
    std::ostream sam_stream(&sam_sink);

    const PipelineResult result =
        session.run(reads, nullptr, want_sam ? &sam_stream : nullptr);
    if (want_sam) {
      sam_sink.flush_frames();
      sam_sink.rethrow_if_failed();
    }

    // SNP calls: byte-identical to the offline CLI's --out file.  Rendered
    // with the locale-independent append API straight into the frame
    // buffer — no ostream between the calls and the socket.
    std::string tsv_text;
    append_snps_tsv(tsv_text, result.calls);
    for (std::size_t off = 0; off < tsv_text.size(); off += kChunkBytes) {
      const std::size_t n = std::min(kChunkBytes, tsv_text.size() - off);
      write_frame(sock, FrameType::kResultTsv,
                  std::string_view(tsv_text).substr(off, n),
                  options_.io_timeout_ms, &slot.cancel);
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      serve_metrics().bytes_tx.inc(n);
      digest.result_bytes += n;
    }

    reads_total_.fetch_add(result.stats.reads_total,
                           std::memory_order_relaxed);
    reads_mapped_total_.fetch_add(result.stats.reads_mapped,
                                  std::memory_order_relaxed);

    digest.decode_seconds = result.decode_seconds;
    digest.map_stage_seconds = result.map_stage_seconds;
    digest.format_seconds = result.format_seconds;
    digest.splice_seconds = result.splice_seconds;
    digest.call_seconds = result.call_seconds;
    digest.reads_total = result.stats.reads_total;
    digest.reads_mapped = result.stats.reads_mapped;
    digest.calls = result.calls.size();
    digest.phmm_cells = result.stats.dp_cells;
    digest.fp32_recomputed = result.stats.fp32_recomputed_reads;
    const double kernel_seconds =
        result.stats.phmm_forward_seconds + result.stats.phmm_backward_seconds;
    digest.gcups = kernel_seconds > 0.0
                       ? static_cast<double>(result.stats.dp_cells) /
                             kernel_seconds / 1e9
                       : 0.0;

    // MAP_DONE: the per-stage timing summary mirrors the digest, so a
    // client sees where its request's time went without scraping anything.
    // Clients parse key=value lines and ignore keys they don't know.
    std::string done;
    done += u64_kv("reads_total", result.stats.reads_total);
    done += u64_kv("reads_mapped", result.stats.reads_mapped);
    done += u64_kv("calls", result.calls.size());
    done += u64_kv("batches", result.batches_decoded);
    done += u64_kv("in_flight_peak", result.reads_in_flight_peak);
    done += u64_kv("window_reads", window);
    done += "map_seconds=" + std::to_string(result.map_seconds) + "\n";
    done += dbl_kv("total_seconds", request_timer.seconds());
    done += dbl_kv("admission_wait_seconds", digest.admission_wait_seconds);
    done += dbl_kv("upload_wait_seconds", digest.upload_wait_seconds);
    done += dbl_kv("decode_seconds", digest.decode_seconds);
    done += dbl_kv("map_stage_seconds", digest.map_stage_seconds);
    // drain_seconds (the format+splice sum) predates the worker-format
    // refactor; it stays alongside the split keys for existing dashboards.
    done += dbl_kv("drain_seconds", digest.drain_seconds());
    done += dbl_kv("format_seconds", digest.format_seconds);
    done += dbl_kv("splice_seconds", digest.splice_seconds);
    done += dbl_kv("call_seconds", digest.call_seconds);
    done += u64_kv("upload_bytes", digest.upload_bytes);
    done += u64_kv("result_bytes", digest.result_bytes);
    done += u64_kv("phmm_cells", digest.phmm_cells);
    done += dbl_kv("gcups", digest.gcups);
    done += u64_kv("fp32_recomputed", digest.fp32_recomputed);
    done += dbl_kv("index_load_seconds", genome_.load_seconds());
    if (begin.trace_id != 0) {
      done += "trace_id=" + trace_id_hex(begin.trace_id) + "\n";
      done += "parent_span_id=" + trace_id_hex(begin.parent_span_id) + "\n";
    }
    write_frame(sock, FrameType::kMapDone, done, options_.io_timeout_ms,
                &slot.cancel);

    serve_metrics().request_seconds.observe(request_timer.seconds());
    finish_digest(0);
    return true;
  } catch (const WireError& e) {
    requests_failed_.fetch_add(1, std::memory_order_relaxed);
    if (e.code() == WireErrorCode::kShuttingDown &&
        slot.cancel.load(std::memory_order_relaxed)) {
      // The watchdog cancelled this request (deadline or budget); report
      // why, not the mechanism.
      const auto [code, msg] = cancel_reason(slot);
      send_error(sock, code, who + msg);
      finish_digest(static_cast<std::uint16_t>(code));
    } else {
      send_error(sock, e.code(), who + e.what());
      finish_digest(static_cast<std::uint16_t>(e.code()));
    }
    return false;
  } catch (const ParseError& e) {
    requests_failed_.fetch_add(1, std::memory_order_relaxed);
    send_error(sock, WireErrorCode::kParse, who + e.what());
    finish_digest(static_cast<std::uint16_t>(WireErrorCode::kParse));
    return false;
  } catch (const std::exception& e) {
    requests_failed_.fetch_add(1, std::memory_order_relaxed);
    send_error(sock, WireErrorCode::kInternal, who + e.what());
    finish_digest(static_cast<std::uint16_t>(WireErrorCode::kInternal));
    return false;
  }
}

void MappingServer::handle_shard_map(Socket& sock, ConnectionSlot& slot,
                                     MapStats& stats,
                                     int effective_timeout_ms) {
  Timer request_timer;
  write_frame(sock, FrameType::kMapGo, "", options_.io_timeout_ms,
              &slot.cancel);

  // One workspace for the whole request: SHARD_READS batches arrive in
  // order and are scored synchronously on this thread with the scalar
  // double kernel — partials must be independent of this daemon's SIMD
  // and precision settings (read_mapper.hpp, score_reads_raw).
  MapperWorkspace ws;
  for (;;) {
    int timeout = options_.io_timeout_ms;
    if (effective_timeout_ms > 0) {
      const int remaining =
          effective_timeout_ms -
          static_cast<int>(request_timer.seconds() * 1000.0);
      if (remaining <= 0) {
        deadline_abandoned_total_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().deadline_abandoned_total.inc();
        throw WireError(WireErrorCode::kTimeout,
                        "shard request exceeded the " +
                            std::to_string(effective_timeout_ms) +
                            " ms deadline");
      }
      timeout = std::min(timeout, remaining);
    }
    std::optional<Frame> frame =
        read_frame(sock, options_.max_frame_bytes, timeout, &slot.cancel);
    if (!frame.has_value()) {
      throw WireError(WireErrorCode::kClosed,
                      "router disconnected mid-request");
    }
    if (frame->type == FrameType::kMapEnd) break;
    if (frame->type != FrameType::kShardReads) {
      throw WireError(WireErrorCode::kProtocol,
                      "expected SHARD_READS or MAP_END, got type " +
                          std::to_string(static_cast<int>(frame->type)));
    }
    bytes_received_.fetch_add(frame->payload.size(),
                              std::memory_order_relaxed);
    serve_metrics().bytes_rx.inc(frame->payload.size());

    const std::vector<Read> reads = fleet::deserialize_reads(frame->payload);
    const auto partials = genome_.session().mapper().score_reads_raw(
        reads, ws, stats, genome_.core_begin(), genome_.core_end());
    const std::string out = fleet::serialize_partials(partials);
    write_frame(sock, FrameType::kResultPartial, out, options_.io_timeout_ms,
                &slot.cancel);
    bytes_sent_.fetch_add(out.size(), std::memory_order_relaxed);
    serve_metrics().bytes_tx.inc(out.size());
  }

  std::string done;
  done += u64_kv("reads_total", stats.reads_total);
  done += u64_kv("candidates_evaluated", stats.candidates_evaluated);
  done += u64_kv("phmm_cells", stats.dp_cells);
  done += dbl_kv("index_load_seconds", genome_.load_seconds());
  done += u64_kv("shard_core_begin", genome_.core_begin());
  done += u64_kv("shard_core_end", genome_.core_end());
  write_frame(sock, FrameType::kMapDone, done, options_.io_timeout_ms,
              &slot.cancel);
}

}  // namespace gnumap::serve
