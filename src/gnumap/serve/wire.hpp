// The gnumapd wire protocol: length-prefixed, CRC-checked binary frames
// over TCP.
//
// Frame layout (all integers little-endian):
//
//   u32 payload_length | u8 frame_type | u32 crc32 | payload bytes
//
// The CRC32 (IEEE/zlib polynomial) covers the first five header bytes
// (length + type) and the payload, with the crc field itself excluded, so
// a flipped bit anywhere in the frame — header or body — surfaces as a
// typed kCorrupt ERROR instead of a garbage parse or a silently wrong
// length.
//
// A session is a version handshake followed by any number of requests:
//
//   client                          server
//   ------                          ------
//   HELLO {u16 version, name}  ->
//                              <-   HELLO_OK {u16 version, banner}
//   MAP_BEGIN {u8 flags,       ->
//              u32 deadline_ms,
//              u64 trace_id,
//              u64 parent_span_id}
//                              <-   MAP_GO | BUSY {u32 retry_ms, msg}
//   READS_CHUNK {fastq bytes}  ->   (repeated; server pulls with
//   ...                              backpressure — frames are only read
//   MAP_END                          as the pipeline consumes them)
//                              <-   RESULT_SAM {sam bytes}   (if requested)
//                              <-   RESULT_TSV {tsv bytes}   (repeated)
//                              <-   MAP_DONE {key=value stats lines}
//   STATS                      ->
//                              <-   STATS_OK {key=value lines}
//   HEALTH                     ->   (also allowed before HELLO, so fleet
//                              <-   HEALTH_OK {key=value lines} probes
//                                   need no handshake)
//   SHUTDOWN                   ->
//                              <-   SHUTDOWN_OK   (server then drains+exits)
//
// Client, server and router all ship from this repository, so there is
// one protocol version: HELLO must carry exactly kProtocolVersion, and any
// other version is refused with kBadVersion.  MAP_BEGIN has one fixed
// 21-byte form; any other length is kBadFrame.
//
// MAP_BEGIN's deadline_ms (0 = none) is the client's overall request
// deadline; the server propagates it into the pipeline and abandons work
// nobody is waiting for (typed kTimeout, deadline-abandoned counter).  Its
// trace_id (0 = request not traced) and parent_span_id name the client's
// span: the server tags its serve_request spans and request log lines with
// the trace id and echoes both ids — plus a per-stage timing summary — in
// MAP_DONE, so scripts/merge_traces.py can splice the client and server
// trace files into one timeline.
//
// Fleet shard frames: a router MAP_BEGINs with the kFlagShardPartials
// flag, streams SHARD_READS frames (each a serialized read batch), and
// receives one RESULT_PARTIAL per batch carrying the shard's pre-epilogue
// candidate scores for merging (fleet/partials.hpp).
//
// Any violation — unknown type, oversized frame, CRC mismatch, FASTQ parse
// failure, timeout — is answered with ERROR {u16 code, msg} and the
// connection is closed; the server itself always survives.  RESULT_SAM
// frames can arrive while the client is still sending READS_CHUNK frames
// (the pipeline drains as it maps), so clients must read and write
// concurrently.
//
// Byte-identity contract: the RESULT_TSV payloads concatenated equal the
// offline CLI's --out file for the same reads and pipeline config, and the
// RESULT_SAM payloads concatenated equal its --sam file.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "gnumap/serve/socket.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap::serve {

/// The one protocol version spoken; HELLO must match it exactly.
inline constexpr std::uint16_t kProtocolVersion = 5;

/// Frame header bytes on the wire: u32 length + u8 type + u32 crc32.
inline constexpr std::size_t kFrameHeaderBytes = 9;

/// Hard ceiling on a frame payload; larger frames are a protocol error.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Preferred payload size when chunking bulk data (FASTQ, SAM, TSV).
inline constexpr std::size_t kChunkBytes = 64u << 10;

enum class FrameType : std::uint8_t {
  kHello = 0x01,
  kHelloOk = 0x02,
  kMapBegin = 0x10,   ///< payload: u8 flags + u32 client deadline_ms
                      ///< + u64 trace_id + u64 parent_span_id
  kReadsChunk = 0x11, ///< payload: raw FASTQ text
  kMapEnd = 0x12,
  kMapGo = 0x13,      ///< admission granted; send READS_CHUNK frames
  kShardReads = 0x14, ///< payload: serialized read batch (fleet router ->
                      ///< shard; requires kFlagShardPartials)
  kResultTsv = 0x20,  ///< payload: SNP TSV bytes (chunked)
  kResultSam = 0x21,  ///< payload: SAM bytes (chunked)
  kMapDone = 0x22,    ///< payload: key=value lines (reads_total, ...)
  kResultPartial = 0x24, ///< payload: serialized per-read candidate
                         ///< partials for one SHARD_READS batch
  kStats = 0x30,
  kStatsOk = 0x31,    ///< payload: key=value lines
  kHealth = 0x32,     ///< readiness probe; allowed even before HELLO
  kHealthOk = 0x33,   ///< payload: key=value lines (ready, draining, ...)
  kShutdown = 0x40,
  kShutdownOk = 0x41,
  kBusy = 0x50,       ///< payload: u32 retry_after_ms + message
  kError = 0x51,      ///< payload: u16 WireErrorCode + message
};

/// MAP_BEGIN flag bits.
inline constexpr std::uint8_t kFlagWantSam = 0x01;
inline constexpr std::uint8_t kFlagPhred64 = 0x02;
/// Shard-partial mode: the peer is a fleet router; reads arrive as
/// SHARD_READS frames and results leave as RESULT_PARTIAL frames instead
/// of TSV/SAM.  Mutually exclusive with kFlagWantSam.
inline constexpr std::uint8_t kFlagShardPartials = 0x04;

enum class WireErrorCode : std::uint16_t {
  kBadFrame = 1,      ///< malformed frame or unknown frame type
  kBadVersion = 2,    ///< HELLO version mismatch
  kProtocol = 3,      ///< well-formed frame at the wrong point
  kTooLarge = 4,      ///< frame exceeds the configured maximum
  kParse = 5,         ///< FASTQ payload failed to parse
  kTimeout = 6,       ///< peer idle past the per-request deadline
  kShuttingDown = 7,  ///< server is draining; retry elsewhere/later
  kInternal = 8,      ///< unexpected server-side failure
  kClosed = 9,        ///< peer closed mid-frame / mid-request
  kCorrupt = 10,      ///< frame CRC mismatch: bytes damaged in flight
  kEvicted = 11,      ///< server evicted the connection (watchdog/budget)
};

const char* wire_error_code_name(WireErrorCode code);

/// Transport- or protocol-level failure; `code` is what goes on the wire
/// when the failure is reportable to the peer.
class WireError : public Error {
 public:
  WireError(WireErrorCode code, const std::string& what)
      : Error(what), code_(code) {}
  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// CRC32 (IEEE 802.3 / zlib polynomial, bit-reflected).  `seed` chains
/// incremental computation: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Writes one frame.  Throws WireError on timeout or a closed peer.
void write_frame(Socket& sock, FrameType type, std::string_view payload,
                 int timeout_ms, const std::atomic<bool>* cancel = nullptr);

/// Reads one frame and verifies its CRC.  Returns nullopt on orderly peer
/// close at a frame boundary; throws WireError for truncation, oversized
/// payloads (kTooLarge), CRC mismatches (kCorrupt), timeouts, or
/// cancellation.
std::optional<Frame> read_frame(Socket& sock, std::uint32_t max_payload,
                                int timeout_ms,
                                const std::atomic<bool>* cancel = nullptr);

// --- payload pack/unpack helpers -----------------------------------------

void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// Read little-endian integers at `offset`; throw WireError(kBadFrame) on
/// short payloads.
std::uint16_t get_u16(std::string_view payload, std::size_t offset);
std::uint32_t get_u32(std::string_view payload, std::size_t offset);
std::uint64_t get_u64(std::string_view payload, std::size_t offset);

/// 16-digit lowercase hex rendering of a trace/span id — the one form used
/// in log prefixes, MAP_DONE summaries, and trace-span args, so the ids
/// can be grepped across client and server artifacts byte-exactly.
std::string trace_id_hex(std::uint64_t id);

/// HELLO / HELLO_OK: u16 version + free-form text.
std::string encode_hello(std::uint16_t version, std::string_view text);
std::pair<std::uint16_t, std::string> decode_hello(std::string_view payload);

/// MAP_BEGIN payload.
struct MapBeginInfo {
  std::uint8_t flags = 0;
  std::uint32_t deadline_ms = 0;    ///< 0 = no client deadline
  std::uint64_t trace_id = 0;       ///< 0 = request not traced
  std::uint64_t parent_span_id = 0; ///< client's enclosing span
};

/// MAP_BEGIN's one form: u8 flags + u32 deadline_ms + u64 trace_id + u64
/// parent_span_id.
inline constexpr std::size_t kMapBeginBytes = 21;

std::string encode_map_begin(const MapBeginInfo& info);
/// Throws WireError(kBadFrame) unless the payload is kMapBeginBytes long.
MapBeginInfo decode_map_begin(std::string_view payload);

/// BUSY: u32 retry_after_ms + message.
std::string encode_busy(std::uint32_t retry_after_ms, std::string_view msg);
std::pair<std::uint32_t, std::string> decode_busy(std::string_view payload);

/// ERROR: u16 code + message.
std::string encode_error(WireErrorCode code, std::string_view msg);
std::pair<WireErrorCode, std::string> decode_error(std::string_view payload);

}  // namespace gnumap::serve
