#include "gnumap/fleet/router.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <optional>
#include <streambuf>
#include <string>
#include <utility>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/sam_export.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/fleet/partials.hpp"
#include "gnumap/io/quality.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/sam.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/serve/client.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/log.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap::fleet {

using serve::decode_busy;
using serve::decode_error;
using serve::decode_hello;
using serve::encode_busy;
using serve::encode_error;
using serve::encode_hello;
using serve::encode_map_begin;
using serve::Frame;
using serve::FrameType;
using serve::kChunkBytes;
using serve::kFlagPhred64;
using serve::kFlagShardPartials;
using serve::kFlagWantSam;
using serve::kProtocolVersion;
using serve::MapBeginInfo;
using serve::read_frame;
using serve::Socket;
using serve::WireError;
using serve::WireErrorCode;
using serve::write_frame;

namespace {

std::string u64_kv(const char* key, std::uint64_t value) {
  return std::string(key) + "=" + std::to_string(value) + "\n";
}

std::string dbl_kv(const char* key, double value) {
  return std::string(key) + "=" + std::to_string(value) + "\n";
}

/// One live backend connection for the duration of a MAP request.
struct ShardConn {
  ShardBackend backend;
  Socket sock;
  std::string label;  ///< "host:port" for error messages
};

/// istream adapter over the client's READS_CHUNK frames, mirroring the
/// single daemon's pull model: a chunk is read off the socket only when
/// the FASTQ decoder wants more bytes, so backpressure reaches the client.
class ChunkSourceBuf final : public std::streambuf {
 public:
  ChunkSourceBuf(Socket& sock, const RouterOptions& options, bool& saw_end,
                 std::uint64_t& upload_bytes)
      : sock_(sock),
        options_(options),
        saw_end_(saw_end),
        upload_bytes_(upload_bytes) {}

 protected:
  int_type underflow() override {
    if (saw_end_) return traits_type::eof();
    std::optional<Frame> frame = read_frame(
        sock_, options_.max_frame_bytes, options_.io_timeout_ms);
    if (!frame.has_value()) {
      throw WireError(WireErrorCode::kClosed,
                      "client disconnected mid-request");
    }
    if (frame->type == FrameType::kMapEnd) {
      saw_end_ = true;
      return traits_type::eof();
    }
    if (frame->type != FrameType::kReadsChunk) {
      throw WireError(WireErrorCode::kProtocol,
                      "expected READS_CHUNK or MAP_END, got type " +
                          std::to_string(static_cast<int>(frame->type)));
    }
    upload_bytes_ += frame->payload.size();
    chunk_ = std::move(frame->payload);
    if (chunk_.empty()) return underflow();
    setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
    return traits_type::to_int_type(chunk_.front());
  }

 private:
  Socket& sock_;
  const RouterOptions& options_;
  bool& saw_end_;
  std::uint64_t& upload_bytes_;
  std::string chunk_;
};

/// Merges the per-shard candidate lists of one read, truncates to
/// max_candidates in seeder order, and returns the surviving ScoredSites.
/// This reproduces exactly what a single daemon's Seeder::candidates()
/// would have produced: shard core ranges partition the genome, so each
/// (diagonal, reverse) band lives in exactly one shard's list, the seeder
/// comparator (votes desc, diagonal asc, reverse asc — seeder.cpp) is a
/// strict total order over the merged list, and a global top-K candidate's
/// shard-local rank never exceeds its global rank, so every global top-K
/// entry is present in some shard's (already truncated) list.  Filtered
/// and failed-alignment candidates keep their slots through truncation,
/// exactly as they do in a single-daemon run, and are dropped only after.
std::vector<ScoredSite> merge_read_candidates(
    const PipelineConfig& config, std::vector<RawCandidate>&& merged) {
  std::sort(merged.begin(), merged.end(),
            [](const RawCandidate& a, const RawCandidate& b) {
              if (a.votes != b.votes) return a.votes > b.votes;
              if (a.diagonal != b.diagonal) return a.diagonal < b.diagonal;
              return a.reverse < b.reverse;
            });
  if (static_cast<int>(merged.size()) > config.seeder.max_candidates) {
    merged.resize(static_cast<std::size_t>(config.seeder.max_candidates));
  }
  std::vector<ScoredSite> sites;
  for (RawCandidate& cand : merged) {
    if (cand.ok) sites.push_back(std::move(cand.site));
  }
  return sites;
}

}  // namespace

RouterServer::RouterServer(const Genome& genome, const PipelineConfig& config,
                           const RouterOptions& options)
    : genome_(genome),
      config_(config),
      options_(options),
      listener_(std::make_unique<serve::Listener>(options.port,
                                                  options.bind_any)) {
  require(!options_.backends.empty(), "router needs at least one backend");
  GNUMAP_LOG(kInfo) << "gnumapd-router: " << options_.backends.size()
                    << " shard backend(s), genome " << genome_.num_bases()
                    << " bases, listening on port " << listener_->port();
}

RouterServer::~RouterServer() {
  request_stop();
  wait();
}

std::uint16_t RouterServer::port() const { return listener_->port(); }

void RouterServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void RouterServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void RouterServer::run() {
  start();
  wait();
}

void RouterServer::request_stop() {
  stopping_.store(true, std::memory_order_relaxed);
}

void RouterServer::accept_loop() {
  while (!stopping()) {
    std::optional<Socket> sock = listener_->accept(200, &stopping_);
    if (!sock.has_value()) continue;
    const int conn_id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    conn_threads_.emplace_back(
        [this, s = std::move(*sock), conn_id]() mutable {
          handle_connection(std::move(s), conn_id);
        });
  }
}

void RouterServer::send_error(Socket& sock, WireErrorCode code,
                              const std::string& msg) {
  try {
    write_frame(sock, FrameType::kError, encode_error(code, msg),
                options_.io_timeout_ms);
  } catch (const WireError&) {
    // Best effort: the peer may already be gone.
  }
}

void RouterServer::handle_connection(Socket sock, int conn_id) {
  try {
    std::optional<Frame> hello =
        read_frame(sock, options_.max_frame_bytes, options_.io_timeout_ms);
    if (!hello.has_value() || hello->type != FrameType::kHello) {
      return;
    }
    const auto [version, client_name] = decode_hello(hello->payload);
    if (version != kProtocolVersion) {
      send_error(sock, WireErrorCode::kBadVersion,
                 "unsupported protocol version " + std::to_string(version) +
                     " (router speaks " + std::to_string(kProtocolVersion) +
                     ")");
      return;
    }
    write_frame(sock, FrameType::kHelloOk,
                encode_hello(kProtocolVersion,
                             "gnumapd-router shards=" +
                                 std::to_string(options_.backends.size()) +
                                 " genome_bases=" +
                                 std::to_string(genome_.num_bases())),
                options_.io_timeout_ms);
    GNUMAP_LOG(kDebug) << "router: conn " << conn_id << " handshake ok ("
                       << client_name << ")";

    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = read_frame(sock, options_.max_frame_bytes, /*timeout_ms=*/0,
                           &stopping_);
      } catch (const WireError& e) {
        if (e.code() == WireErrorCode::kShuttingDown) {
          send_error(sock, e.code(), "router is draining");
        } else if (e.code() != WireErrorCode::kClosed) {
          send_error(sock, e.code(), e.what());
        }
        return;
      }
      if (!frame.has_value()) return;  // clean disconnect

      switch (frame->type) {
        case FrameType::kMapBegin: {
          const MapBeginInfo begin = serve::decode_map_begin(frame->payload);
          const std::uint64_t req_id =
              next_req_id_.fetch_add(1, std::memory_order_relaxed) + 1;
          if (!handle_map(sock, begin, conn_id, req_id)) return;
          break;
        }
        case FrameType::kStats: {
          std::string text;
          text += u64_kv("protocol_version", kProtocolVersion);
          text += u64_kv("router_shards", options_.backends.size());
          text += u64_kv("genome_bases", genome_.num_bases());
          write_frame(sock, FrameType::kStatsOk, text,
                      options_.io_timeout_ms);
          break;
        }
        case FrameType::kHealth: {
          std::string text;
          text += std::string("ready=") + (stopping() ? "0" : "1") + "\n";
          text += u64_kv("router_shards", options_.backends.size());
          write_frame(sock, FrameType::kHealthOk, text,
                      options_.io_timeout_ms);
          break;
        }
        case FrameType::kShutdown:
          write_frame(sock, FrameType::kShutdownOk, "",
                      options_.io_timeout_ms);
          request_stop();
          return;
        default:
          send_error(sock, WireErrorCode::kProtocol,
                     "unexpected frame type " +
                         std::to_string(static_cast<int>(frame->type)));
          return;
      }
    }
  } catch (const std::exception& e) {
    GNUMAP_LOG(kWarn) << "router: conn " << conn_id
                      << " terminated: " << e.what();
  }
}

bool RouterServer::handle_map(Socket& sock, const MapBeginInfo& begin,
                              int conn_id, std::uint64_t req_id) {
  const std::string who = "[router conn " + std::to_string(conn_id) +
                          " req " + std::to_string(req_id) + "] ";
  const bool want_sam = (begin.flags & kFlagWantSam) != 0;
  const int phred_offset =
      (begin.flags & kFlagPhred64) != 0 ? kPhred64 : kPhred33;
  if ((begin.flags & kFlagShardPartials) != 0) {
    send_error(sock, WireErrorCode::kProtocol,
               who + "a router cannot serve shard partials itself");
    return false;
  }
  Timer request_timer;

  // Scatter setup: connect, handshake, and MAP_BEGIN every shard before
  // anything is promised to the client.  A BUSY from any shard aborts the
  // whole fan-out (largest retry hint wins) with the connection left open;
  // nothing has been uploaded yet, so the client's retry is free.
  std::vector<ShardConn> shards;
  shards.reserve(options_.backends.size());
  try {
    for (const ShardBackend& backend : options_.backends) {
      ShardConn conn;
      conn.backend = backend;
      conn.label = backend.host + ":" + std::to_string(backend.port);
      conn.sock = serve::connect_tcp(backend.host, backend.port,
                                     options_.io_timeout_ms);
      write_frame(conn.sock, FrameType::kHello,
                  encode_hello(kProtocolVersion, "gnumapd-router"),
                  options_.io_timeout_ms);
      std::optional<Frame> reply = read_frame(
          conn.sock, options_.max_frame_bytes, options_.io_timeout_ms);
      if (!reply.has_value()) {
        throw WireError(WireErrorCode::kClosed,
                        "shard " + conn.label + " closed during handshake");
      }
      if (reply->type == FrameType::kBusy) {
        const auto [retry_ms, msg] = decode_busy(reply->payload);
        write_frame(sock, FrameType::kBusy,
                    encode_busy(retry_ms, "shard " + conn.label + ": " + msg),
                    options_.io_timeout_ms);
        return true;
      }
      if (reply->type != FrameType::kHelloOk) {
        throw WireError(WireErrorCode::kProtocol,
                        "shard " + conn.label + " answered frame type " +
                            std::to_string(static_cast<int>(reply->type)) +
                            " to HELLO");
      }
      const auto [shard_version, banner] = decode_hello(reply->payload);
      if (shard_version != kProtocolVersion) {
        throw WireError(WireErrorCode::kBadVersion,
                        "shard " + conn.label + " answered protocol v" +
                            std::to_string(shard_version) +
                            "; router speaks v" +
                            std::to_string(kProtocolVersion));
      }
      shards.push_back(std::move(conn));
    }

    // MAP_BEGIN to every shard, then collect every MAP_GO before sending
    // the client its own MAP_GO.
    std::uint32_t busy_hint = 0;
    std::string busy_msg;
    MapBeginInfo shard_begin = begin;
    shard_begin.flags = kFlagShardPartials;
    const std::string shard_begin_payload = encode_map_begin(shard_begin);
    for (ShardConn& shard : shards) {
      write_frame(shard.sock, FrameType::kMapBegin, shard_begin_payload,
                  options_.io_timeout_ms);
    }
    for (ShardConn& shard : shards) {
      std::optional<Frame> reply = read_frame(
          shard.sock, options_.max_frame_bytes, options_.io_timeout_ms);
      if (!reply.has_value()) {
        throw WireError(WireErrorCode::kClosed,
                        "shard " + shard.label + " closed after MAP_BEGIN");
      }
      if (reply->type == FrameType::kBusy) {
        const auto [retry_ms, msg] = decode_busy(reply->payload);
        if (retry_ms >= busy_hint) {
          busy_hint = retry_ms;
          busy_msg = "shard " + shard.label + ": " + msg;
        }
        continue;
      }
      if (reply->type == FrameType::kError) {
        const auto [code, msg] = decode_error(reply->payload);
        throw WireError(code, "shard " + shard.label + ": " + msg);
      }
      if (reply->type != FrameType::kMapGo) {
        throw WireError(WireErrorCode::kProtocol,
                        "shard " + shard.label + " answered frame type " +
                            std::to_string(static_cast<int>(reply->type)) +
                            " to MAP_BEGIN");
      }
    }
    if (!busy_msg.empty()) {
      write_frame(sock, FrameType::kBusy, encode_busy(busy_hint, busy_msg),
                  options_.io_timeout_ms);
      return true;
    }
  } catch (const WireError& e) {
    send_error(sock, e.code(), who + e.what());
    return false;
  }

  try {
    write_frame(sock, FrameType::kMapGo, "", options_.io_timeout_ms);

    // The same epilogue a single daemon runs (session.cpp): accumulator,
    // SAM header first, per-read accumulate + SAM records in input order,
    // call_snps over the finished accumulator, TSV last.
    auto accum = make_accumulator(config_.accum_kind, 0,
                                  genome_.padded_size(),
                                  config_.centdisc_quantize);
    std::string sam_text;
    if (want_sam) append_sam_header(sam_text, genome_);

    MapStats stats;
    std::uint64_t upload_bytes = 0;
    std::uint64_t result_bytes = 0;
    std::uint64_t batches = 0;
    bool saw_end = false;
    ChunkSourceBuf chunk_buf(sock, options_, saw_end, upload_bytes);
    std::istream fastq_text(&chunk_buf);
    fastq_text.exceptions(std::ios::badbit);
    FastqReadStream reads(fastq_text, config_.stream_batch, phred_offset,
                          "<wire>");

    const auto send_result = [&](FrameType type, const std::string& text) {
      for (std::size_t off = 0; off < text.size(); off += kChunkBytes) {
        const std::size_t n = std::min(kChunkBytes, text.size() - off);
        write_frame(sock, type, std::string_view(text).substr(off, n),
                    options_.io_timeout_ms);
        result_bytes += n;
      }
    };

    ReadBatch batch;
    while (reads.next(batch)) {
      ++batches;
      stats.reads_total += batch.reads.size();
      const std::string payload = serialize_reads(batch.reads);
      for (ShardConn& shard : shards) {
        write_frame(shard.sock, FrameType::kShardReads, payload,
                    options_.io_timeout_ms);
      }
      // One RESULT_PARTIAL per shard, gathered in backend order; the merge
      // is order-independent (the sort below re-establishes seeder order).
      std::vector<std::vector<RawCandidate>> merged(batch.reads.size());
      for (ShardConn& shard : shards) {
        std::optional<Frame> reply = read_frame(
            shard.sock, options_.max_frame_bytes, options_.shard_timeout_ms);
        if (!reply.has_value()) {
          throw WireError(WireErrorCode::kClosed,
                          "shard " + shard.label + " closed mid-batch");
        }
        if (reply->type == FrameType::kError) {
          const auto [code, msg] = decode_error(reply->payload);
          throw WireError(code, "shard " + shard.label + ": " + msg);
        }
        if (reply->type != FrameType::kResultPartial) {
          throw WireError(WireErrorCode::kProtocol,
                          "shard " + shard.label + " sent frame type " +
                              std::to_string(static_cast<int>(reply->type)) +
                              " instead of RESULT_PARTIAL");
        }
        auto partials = deserialize_partials(reply->payload);
        if (partials.size() != batch.reads.size()) {
          throw WireError(WireErrorCode::kProtocol,
                          "shard " + shard.label + " answered " +
                              std::to_string(partials.size()) +
                              " reads for a batch of " +
                              std::to_string(batch.reads.size()));
        }
        for (std::size_t r = 0; r < partials.size(); ++r) {
          auto& dst = merged[r];
          auto& src = partials[r];
          dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                     std::make_move_iterator(src.end()));
        }
      }
      for (std::size_t r = 0; r < batch.reads.size(); ++r) {
        std::vector<ScoredSite> sites =
            merge_read_candidates(config_, std::move(merged[r]));
        finalize_scored_sites(config_, batch.reads[r], sites, stats);
        ReadMapper::accumulate(sites, *accum);
        if (want_sam) {
          for (const auto& record :
               to_sam_records(genome_, batch.reads[r], sites, config_)) {
            append_sam_record(sam_text, genome_, record);
          }
        }
      }
    }

    // Release the shards and aggregate their MAP_DONE accounting.
    std::uint64_t shard_candidates = 0;
    std::uint64_t shard_cells = 0;
    for (ShardConn& shard : shards) {
      write_frame(shard.sock, FrameType::kMapEnd, "", options_.io_timeout_ms);
    }
    for (ShardConn& shard : shards) {
      std::optional<Frame> reply = read_frame(
          shard.sock, options_.max_frame_bytes, options_.shard_timeout_ms);
      if (!reply.has_value()) {
        throw WireError(WireErrorCode::kClosed,
                        "shard " + shard.label + " closed before MAP_DONE");
      }
      if (reply->type == FrameType::kError) {
        const auto [code, msg] = decode_error(reply->payload);
        throw WireError(code, "shard " + shard.label + ": " + msg);
      }
      if (reply->type != FrameType::kMapDone) {
        throw WireError(WireErrorCode::kProtocol,
                        "shard " + shard.label + " sent frame type " +
                            std::to_string(static_cast<int>(reply->type)) +
                            " instead of MAP_DONE");
      }
      const auto kv = serve::parse_kv_lines(reply->payload);
      const auto cand = kv.find("candidates_evaluated");
      if (cand != kv.end()) {
        shard_candidates += std::stoull(cand->second);
      }
      const auto cells = kv.find("phmm_cells");
      if (cells != kv.end()) shard_cells += std::stoull(cells->second);
    }

    if (want_sam) send_result(FrameType::kResultSam, sam_text);

    const std::vector<SnpCall> calls = call_snps(genome_, *accum, config_);
    std::string tsv_text;
    append_snps_tsv(tsv_text, calls);
    send_result(FrameType::kResultTsv, tsv_text);

    std::string done;
    done += u64_kv("reads_total", stats.reads_total);
    done += u64_kv("reads_mapped", stats.reads_mapped);
    done += u64_kv("calls", calls.size());
    done += u64_kv("batches", batches);
    done += u64_kv("router_shards", shards.size());
    done += u64_kv("candidates_evaluated", shard_candidates);
    done += u64_kv("phmm_cells", shard_cells);
    done += u64_kv("upload_bytes", upload_bytes);
    done += u64_kv("result_bytes", result_bytes);
    done += dbl_kv("total_seconds", request_timer.seconds());
    if (begin.trace_id != 0) {
      done += "trace_id=" + serve::trace_id_hex(begin.trace_id) + "\n";
      done += "parent_span_id=" +
              serve::trace_id_hex(begin.parent_span_id) + "\n";
    }
    write_frame(sock, FrameType::kMapDone, done, options_.io_timeout_ms);
    GNUMAP_LOG(kInfo) << "router: " << who << stats.reads_mapped << "/"
                      << stats.reads_total << " reads mapped across "
                      << shards.size() << " shard(s), " << calls.size()
                      << " calls in " << request_timer.seconds() << " s";
    return true;
  } catch (const WireError& e) {
    send_error(sock, e.code(), who + e.what());
    return false;
  } catch (const ParseError& e) {
    send_error(sock, WireErrorCode::kParse, who + e.what());
    return false;
  } catch (const std::exception& e) {
    send_error(sock, WireErrorCode::kInternal, who + e.what());
    return false;
  }
}

}  // namespace gnumap::fleet
