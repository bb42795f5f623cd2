// Client side of the gnumap serving protocol (wire.hpp).
//
// MappingClient connects, performs the HELLO handshake (the server must
// answer with this build's protocol version), and then issues MAP / STATS /
// HEALTH / SHUTDOWN transactions over the one connection.  map() is the
// interesting call: FASTQ text is pushed as READS_CHUNK frames from a
// background sender thread while the calling thread consumes RESULT_*
// frames — the two directions must run concurrently, because the server
// streams results as the pipeline drains, long before the upload finishes.
//
// Resilience: BUSY answers and (when connect_retries > 0) failed connects
// are retried under jittered capped exponential backoff — each sleep is at
// least the server's retry hint, doubled per consecutive retry, scaled by
// a uniform [0.5, 1.0] jitter so a herd of clients spreads out, and
// bounded by a cumulative backoff budget.  A transport failure mid-map()
// (peer reset, CRC-corrupt reply) triggers an automatic
// reconnect-and-retry when the request is still idempotent: the fastq
// stream can be rewound and no result bytes were delivered yet.  The whole
// call runs under an optional hard deadline that is also sent to the
// server in MAP_BEGIN, so abandoned work is abandoned on both ends.
// MapOutcome reports the attempt/backoff accounting.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <string>

#include "gnumap/serve/fault_shim.hpp"
#include "gnumap/serve/socket.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-frame socket deadline for handshake and uploads.
  int io_timeout_ms = 30'000;
  /// Deadline while waiting for the next RESULT_* frame (mapping time).
  int result_timeout_ms = 300'000;
  /// How many BUSY answers to absorb per map() before giving up.
  int busy_retries = 10;
  /// Extra connect/handshake attempts (constructor and mid-map()
  /// reconnects); 0 = fail on the first refusal, preserving fail-fast
  /// probes.
  int connect_retries = 0;
  /// Reconnect-and-retry attempts after a mid-map() transport failure
  /// (reset, corrupt reply).  A retry happens only while the request is
  /// idempotent: the fastq stream rewinds and no result bytes arrived.
  int transport_retries = 2;
  /// Hard wall-clock deadline for one map() call — backoff sleeps,
  /// reconnects, upload, and mapping time included (0 = unlimited).  Also
  /// sent in MAP_BEGIN so the server abandons work nobody waits for.
  std::uint32_t deadline_ms = 0;
  /// First backoff sleep; doubles per consecutive retry.
  std::uint32_t backoff_base_ms = 50;
  /// Ceiling for a single backoff sleep (a larger server hint wins).
  std::uint32_t backoff_max_ms = 2'000;
  /// Cumulative backoff budget per call (0 = unlimited); once spent, the
  /// next retry gives up instead of sleeping.
  std::uint32_t backoff_total_ms = 60'000;
  /// Jitter seed; 0 draws one from std::random_device (tests pin it).
  std::uint64_t backoff_seed = 0;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Deterministic wire fault plan applied to this client's own sends
  /// (chaos tests: batter the server mid-frame, then exercise the
  /// reconnect path).  One injector serves the client's whole lifetime,
  /// so a one-shot fault fires once and the retry that follows succeeds.
  WireFaultPlan fault_plan;
  /// Free-text client name sent in HELLO (shows up in server logs).
  std::string name = "gnumap-client";
  /// Trace id sent in MAP_BEGIN; 0 draws a fresh random id per map() call
  /// (tests pin it for byte-exact round-trip checks).  The id survives
  /// mid-call reconnects — it names the logical request.
  std::uint64_t trace_id = 0;
};

/// Result of one MAP transaction, including retry accounting.
struct MapOutcome {
  /// True when the request was never admitted: every MAP_BEGIN drew BUSY
  /// until the retry/backoff budget ran out (stats is empty then).
  bool busy = false;
  /// Parsed MAP_DONE payload (reads_total, reads_mapped, calls, batches,
  /// in_flight_peak, window_reads, map_seconds, plus the server's
  /// per-stage timing summary — total_seconds, decode_seconds,
  /// map_stage_seconds, drain_seconds (= format_seconds + splice_seconds,
  /// also present split), gcups, ... — and the echoed
  /// trace_id/parent_span_id as hex strings).
  std::map<std::string, std::string> stats;
  std::uint64_t tsv_bytes = 0;
  std::uint64_t sam_bytes = 0;
  /// MAP_BEGIN round trips issued (1 = admitted on the first try).
  int attempts = 0;
  /// BUSY answers absorbed across all attempts.
  int busy_answers = 0;
  /// Connections re-established after a transport failure.
  int reconnects = 0;
  /// Total milliseconds slept in retry backoff.
  std::uint64_t backoff_ms = 0;
  /// Trace id this request carried in MAP_BEGIN.
  std::uint64_t trace_id = 0;
};

class MappingClient {
 public:
  /// Connects and completes the HELLO handshake, retrying refused or
  /// failed connects up to connect_retries times under backoff; throws
  /// WireError once the budget is spent.
  explicit MappingClient(const ClientOptions& options);

  MappingClient(const MappingClient&) = delete;
  MappingClient& operator=(const MappingClient&) = delete;

  /// Server banner from HELLO_OK.
  const std::string& banner() const { return banner_; }

  /// Maps the FASTQ text readable from `fastq`.  SNP calls (TSV, identical
  /// to the offline CLI's --out bytes) are written to `tsv_out`; when
  /// `sam_out` is non-null the request also asks for SAM records and
  /// writes them there (identical to --sam bytes).  Throws WireError on
  /// typed server errors, transport failure past the retry budget, or the
  /// client deadline.
  MapOutcome map(std::istream& fastq, std::ostream& tsv_out,
                 std::ostream* sam_out = nullptr, bool phred64 = false);

  /// STATS round trip: the server's key=value counter snapshot.
  std::string stats();

  /// HEALTH round trip: the server's key=value readiness snapshot.
  std::string health();

  /// Asks the server to drain and exit (SHUTDOWN / SHUTDOWN_OK).
  void shutdown_server();

  void close() { sock_.close(); }

 private:
  /// One connect + HELLO attempt.  Returns the retry hint when the server
  /// answered BUSY (connection limit); throws on other failures.
  std::optional<std::uint32_t> connect_and_handshake();
  /// Connect with up to connect_retries backoff rounds, accounting into
  /// `outcome` when given.
  void establish(MapOutcome* outcome, const Timer& call_timer);
  /// One MAP transaction on the live connection.
  void map_once(std::istream& fastq, std::ostream& tsv_out,
                std::ostream* sam_out, std::uint8_t flags,
                std::uint64_t trace_id, std::uint64_t parent_span_id,
                MapOutcome& outcome, const Timer& call_timer);
  /// Sleeps the next jittered exponential delay (at least `hint_ms`).
  /// Returns false — without sleeping — when the cumulative backoff budget
  /// or the call deadline would be exceeded.
  bool backoff_sleep(std::uint32_t hint_ms, int consecutive,
                     MapOutcome& outcome, const Timer& call_timer);
  /// `base_ms` clipped to what remains of the call deadline; throws
  /// WireError(kTimeout) once the deadline has passed.
  int bounded_timeout(int base_ms, const Timer& call_timer) const;

  ClientOptions options_;
  Socket sock_;
  std::string banner_;
  std::mt19937_64 rng_;
  std::shared_ptr<WireFaultInjector> injector_;
};

/// Parses "key=value\n" lines (MAP_DONE and STATS_OK payloads).
std::map<std::string, std::string> parse_kv_lines(std::string_view text);

}  // namespace gnumap::serve
