#include "gnumap/serve/client.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"

namespace gnumap::serve {

namespace {

/// Client-side retry counter (BUSY backoff rounds + reconnects), exported
/// alongside the server's gnumap_serve_* series.
obs::Counter& retries_metric() {
  static obs::Counter& counter = obs::registry().counter(
      "gnumap_serve_retries_total",
      "Client-side retries: BUSY backoff rounds and reconnects");
  return counter;
}

bool transport_retryable(WireErrorCode code) {
  // Peer resets and damaged replies are worth a reconnect; typed server
  // verdicts (parse failures, protocol violations, evictions) are not —
  // they would just repeat.
  return code == WireErrorCode::kClosed || code == WireErrorCode::kCorrupt;
}

}  // namespace

std::map<std::string, std::string> parse_kv_lines(std::string_view text) {
  std::map<std::string, std::string> kv;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    const std::size_t eq = line.find('=');
    if (eq != std::string_view::npos) {
      kv.emplace(std::string(line.substr(0, eq)),
                 std::string(line.substr(eq + 1)));
    }
    start = end + 1;
  }
  return kv;
}

MappingClient::MappingClient(const ClientOptions& options)
    : options_(options),
      rng_(options.backoff_seed != 0 ? options.backoff_seed
                                     : std::random_device{}()),
      injector_(make_injector(options.fault_plan)) {
  const Timer call_timer;
  establish(nullptr, call_timer);
}

int MappingClient::bounded_timeout(int base_ms,
                                   const Timer& call_timer) const {
  if (options_.deadline_ms == 0) return base_ms;
  const std::int64_t remaining =
      static_cast<std::int64_t>(options_.deadline_ms) -
      static_cast<std::int64_t>(call_timer.seconds() * 1000.0);
  if (remaining <= 0) {
    throw WireError(WireErrorCode::kTimeout,
                    "client deadline of " +
                        std::to_string(options_.deadline_ms) +
                        " ms exceeded");
  }
  if (base_ms <= 0) return static_cast<int>(remaining);
  return static_cast<int>(
      std::min<std::int64_t>(base_ms, remaining));
}

bool MappingClient::backoff_sleep(std::uint32_t hint_ms, int consecutive,
                                  MapOutcome& outcome,
                                  const Timer& call_timer) {
  // Exponential base, floored by the server's hint: a saturated server's
  // queue-depth-scaled hint wins over our own schedule.
  std::uint64_t delay = std::max<std::uint64_t>(1, options_.backoff_base_ms);
  for (int i = 0; i < consecutive && delay < options_.backoff_max_ms; ++i) {
    delay *= 2;
  }
  delay = std::min<std::uint64_t>(delay, options_.backoff_max_ms);
  delay = std::max<std::uint64_t>(delay, hint_ms);
  // Full-range-halved jitter: [0.5, 1.0] of the computed delay, so a herd
  // of clients released by the same BUSY wave spreads out.
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  delay = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(delay) *
                                    jitter(rng_)));

  if (options_.backoff_total_ms > 0 &&
      outcome.backoff_ms + delay > options_.backoff_total_ms) {
    return false;  // cumulative budget spent
  }
  if (options_.deadline_ms > 0) {
    const std::int64_t remaining =
        static_cast<std::int64_t>(options_.deadline_ms) -
        static_cast<std::int64_t>(call_timer.seconds() * 1000.0);
    if (remaining <= static_cast<std::int64_t>(delay)) return false;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  outcome.backoff_ms += delay;
  retries_metric().inc();
  return true;
}

std::optional<std::uint32_t> MappingClient::connect_and_handshake() {
  sock_ = connect_tcp(options_.host, options_.port, options_.io_timeout_ms);
  // The injector (and the events it has already fired) outlives the
  // socket: reconnects do not replay consumed faults.
  if (injector_) sock_.set_fault_injector(injector_);
  write_frame(sock_, FrameType::kHello,
              encode_hello(kProtocolVersion, options_.name),
              options_.io_timeout_ms);
  auto reply = read_frame(sock_, options_.max_frame_bytes,
                          options_.io_timeout_ms);
  if (!reply.has_value()) {
    throw WireError(WireErrorCode::kClosed,
                    "server closed the connection during handshake");
  }
  if (reply->type == FrameType::kBusy) {
    const auto [retry_ms, msg] = decode_busy(reply->payload);
    return retry_ms;  // connection-limit refusal; caller may back off
  }
  if (reply->type == FrameType::kError) {
    const auto [code, msg] = decode_error(reply->payload);
    throw WireError(code, "handshake refused: " + msg);
  }
  if (reply->type != FrameType::kHelloOk) {
    throw WireError(WireErrorCode::kProtocol,
                    "expected HELLO_OK, got frame type " +
                        std::to_string(static_cast<int>(reply->type)));
  }
  const auto [version, banner] = decode_hello(reply->payload);
  if (version != kProtocolVersion) {
    throw WireError(WireErrorCode::kBadVersion,
                    "server answered protocol version " +
                        std::to_string(version) + ", client speaks " +
                        std::to_string(kProtocolVersion));
  }
  banner_ = banner;
  return std::nullopt;
}

void MappingClient::establish(MapOutcome* outcome, const Timer& call_timer) {
  MapOutcome scratch;
  MapOutcome& acc = outcome != nullptr ? *outcome : scratch;
  for (int attempt = 0;; ++attempt) {
    std::uint32_t hint_ms = 0;
    try {
      const auto busy = connect_and_handshake();
      if (!busy.has_value()) return;  // connected and handshaken
      hint_ms = *busy;
      ++acc.busy_answers;
      if (attempt >= options_.connect_retries) {
        throw WireError(WireErrorCode::kShuttingDown,
                        "server busy: connection limit reached (retry "
                        "after " +
                            std::to_string(hint_ms) + " ms)");
      }
    } catch (const WireError& e) {
      sock_.close();
      // A damaged handshake (kCorrupt) is as transient as a reset: nothing
      // has been committed, so a fresh connection is always safe.
      const bool retryable = e.code() == WireErrorCode::kClosed ||
                             e.code() == WireErrorCode::kTimeout ||
                             e.code() == WireErrorCode::kCorrupt;
      if (!retryable || attempt >= options_.connect_retries) throw;
    }
    if (!backoff_sleep(hint_ms, attempt, acc, call_timer)) {
      throw WireError(WireErrorCode::kTimeout,
                      "connect retry budget exhausted after " +
                          std::to_string(acc.backoff_ms) + " ms of backoff");
    }
  }
}

MapOutcome MappingClient::map(std::istream& fastq, std::ostream& tsv_out,
                              std::ostream* sam_out, bool phred64) {
  std::uint8_t flags = 0;
  if (sam_out != nullptr) flags |= kFlagWantSam;
  if (phred64) flags |= kFlagPhred64;

  const Timer call_timer;
  MapOutcome outcome;
  const std::istream::pos_type rewind_pos = fastq.tellg();

  // The trace id names the logical request, so it is drawn once per map()
  // call and survives reconnects.
  std::uint64_t trace_id = options_.trace_id;
  while (trace_id == 0) trace_id = rng_();
  std::uint64_t parent_span_id = 0;
  while (parent_span_id == 0) parent_span_id = rng_();

  for (int reconnect = 0;; ++reconnect) {
    try {
      map_once(fastq, tsv_out, sam_out, flags, trace_id, parent_span_id,
               outcome, call_timer);
      return outcome;
    } catch (const WireError& e) {
      // Reconnect-and-retry only while the request is idempotent: the
      // input rewinds and no result bytes reached the caller's streams.
      const bool idempotent =
          rewind_pos != std::istream::pos_type(-1) &&
          outcome.tsv_bytes == 0 && outcome.sam_bytes == 0;
      if (!transport_retryable(e.code()) || !idempotent ||
          reconnect >= options_.transport_retries) {
        throw;
      }
      fastq.clear();
      fastq.seekg(rewind_pos);
      if (!fastq.good()) throw;
      if (!backoff_sleep(0, reconnect, outcome, call_timer)) throw;
      sock_.close();
      ++outcome.reconnects;
      retries_metric().inc();
      establish(&outcome, call_timer);
    }
  }
}

void MappingClient::map_once(std::istream& fastq, std::ostream& tsv_out,
                             std::ostream* sam_out, std::uint8_t flags,
                             std::uint64_t trace_id,
                             std::uint64_t parent_span_id,
                             MapOutcome& outcome, const Timer& call_timer) {
  // The whole transaction under one span carrying the request's trace id,
  // so a merged timeline (scripts/merge_traces.py) shows the client's view
  // of the request next to the server's serve_request span.
  outcome.trace_id = trace_id;
  obs::TraceSpan span("map_request", "serve", "attempt",
                      static_cast<double>(outcome.attempts + 1));
  span.set_id(trace_id);

  // Admission: MAP_BEGIN until MAP_GO (no reads sent yet, so BUSY retries
  // are free).  The deadline sent along is what remains of ours, so the
  // server stops working the moment nobody is waiting.
  outcome.busy = false;
  for (int attempt = 0;; ++attempt) {
    ++outcome.attempts;
    std::uint32_t server_deadline_ms = 0;
    if (options_.deadline_ms > 0) {
      server_deadline_ms = static_cast<std::uint32_t>(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(options_.deadline_ms) -
                 static_cast<std::int64_t>(call_timer.seconds() * 1000.0)));
    }
    write_frame(sock_, FrameType::kMapBegin,
                encode_map_begin({.flags = flags,
                                  .deadline_ms = server_deadline_ms,
                                  .trace_id = trace_id,
                                  .parent_span_id = parent_span_id}),
                bounded_timeout(options_.io_timeout_ms, call_timer));
    auto reply = read_frame(sock_, options_.max_frame_bytes,
                            bounded_timeout(options_.io_timeout_ms,
                                            call_timer));
    if (!reply.has_value()) {
      throw WireError(WireErrorCode::kClosed,
                      "server closed the connection after MAP_BEGIN");
    }
    if (reply->type == FrameType::kMapGo) break;
    if (reply->type == FrameType::kBusy) {
      const auto [retry_ms, msg] = decode_busy(reply->payload);
      ++outcome.busy_answers;
      if (attempt >= options_.busy_retries ||
          !backoff_sleep(retry_ms, attempt, outcome, call_timer)) {
        outcome.busy = true;
        return;
      }
      continue;
    }
    if (reply->type == FrameType::kError) {
      const auto [code, msg] = decode_error(reply->payload);
      throw WireError(code, msg);
    }
    throw WireError(WireErrorCode::kProtocol,
                    "expected MAP_GO or BUSY, got frame type " +
                        std::to_string(static_cast<int>(reply->type)));
  }

  // Upload from a background thread: the server streams RESULT_* frames
  // while it is still pulling READS_CHUNK frames, and reading those
  // results here is what keeps the server's sends from blocking.
  std::atomic<bool> stop_sending{false};
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      std::string chunk(kChunkBytes, '\0');
      while (!stop_sending.load(std::memory_order_relaxed)) {
        fastq.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const std::size_t got = static_cast<std::size_t>(fastq.gcount());
        if (got == 0) break;
        write_frame(sock_, FrameType::kReadsChunk,
                    std::string_view(chunk.data(), got),
                    options_.io_timeout_ms);
      }
      write_frame(sock_, FrameType::kMapEnd, "", options_.io_timeout_ms);
    } catch (...) {
      // Usually the server erroring out mid-upload and closing; the real
      // diagnosis is the ERROR frame the reader loop is about to see.
      send_error = std::current_exception();
    }
  });

  struct JoinSender {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinSender() {
      stop.store(true, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
  } join_sender{stop_sending, sender};

  try {
    for (;;) {
      auto frame =
          read_frame(sock_, options_.max_frame_bytes,
                     bounded_timeout(options_.result_timeout_ms, call_timer));
      if (!frame.has_value()) {
        throw WireError(WireErrorCode::kClosed,
                        "server closed the connection mid-request");
      }
      switch (frame->type) {
        case FrameType::kResultTsv:
          tsv_out.write(frame->payload.data(),
                        static_cast<std::streamsize>(frame->payload.size()));
          outcome.tsv_bytes += frame->payload.size();
          break;
        case FrameType::kResultSam:
          if (sam_out != nullptr) {
            sam_out->write(
                frame->payload.data(),
                static_cast<std::streamsize>(frame->payload.size()));
          }
          outcome.sam_bytes += frame->payload.size();
          break;
        case FrameType::kMapDone:
          outcome.stats = parse_kv_lines(frame->payload);
          // Graft the server's view into the local timeline: MAP_DONE
          // carries total_seconds, so a span ending now and tagged with
          // the same trace id shows the server-side window even when the
          // two processes never share trace files.
          if (obs::trace_enabled()) {
            const auto total = outcome.stats.find("total_seconds");
            if (total != outcome.stats.end()) {
              const double dur_us =
                  std::atof(total->second.c_str()) * 1e6;
              if (dur_us > 0.0) {
                const double now_us = obs::trace_now_us();
                obs::record_complete("server_elapsed", "serve",
                                     now_us - dur_us, dur_us, nullptr, 0.0,
                                     nullptr, 0.0, trace_id);
              }
            }
          }
          // A completed request means the server consumed the whole
          // upload, so a latched sender error cannot matter here.
          return;
        case FrameType::kError: {
          const auto [code, msg] = decode_error(frame->payload);
          throw WireError(code, msg);
        }
        default:
          throw WireError(WireErrorCode::kProtocol,
                          "unexpected frame type " +
                              std::to_string(static_cast<int>(frame->type)) +
                              " while waiting for results");
      }
    }
  } catch (...) {
    // Prefer the upload-side root cause (e.g. a ParseError from a corrupt
    // local gzip) over the secondary transport error it provoked here.
    stop_sending.store(true, std::memory_order_relaxed);
    if (sender.joinable()) sender.join();
    if (send_error) std::rethrow_exception(send_error);
    throw;
  }
}

std::string MappingClient::stats() {
  write_frame(sock_, FrameType::kStats, "", options_.io_timeout_ms);
  auto reply = read_frame(sock_, options_.max_frame_bytes,
                          options_.io_timeout_ms);
  if (!reply.has_value() || reply->type != FrameType::kStatsOk) {
    throw WireError(WireErrorCode::kProtocol, "STATS request failed");
  }
  return std::move(reply->payload);
}

std::string MappingClient::health() {
  write_frame(sock_, FrameType::kHealth, "", options_.io_timeout_ms);
  auto reply = read_frame(sock_, options_.max_frame_bytes,
                          options_.io_timeout_ms);
  if (!reply.has_value() || reply->type != FrameType::kHealthOk) {
    throw WireError(WireErrorCode::kProtocol, "HEALTH request failed");
  }
  return std::move(reply->payload);
}

void MappingClient::shutdown_server() {
  write_frame(sock_, FrameType::kShutdown, "", options_.io_timeout_ms);
  auto reply = read_frame(sock_, options_.max_frame_bytes,
                          options_.io_timeout_ms);
  if (!reply.has_value() || reply->type != FrameType::kShutdownOk) {
    throw WireError(WireErrorCode::kProtocol, "SHUTDOWN request failed");
  }
}

}  // namespace gnumap::serve
