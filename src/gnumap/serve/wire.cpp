#include "gnumap/serve/wire.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace gnumap::serve {

const char* wire_error_code_name(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadFrame: return "bad_frame";
    case WireErrorCode::kBadVersion: return "bad_version";
    case WireErrorCode::kProtocol: return "protocol";
    case WireErrorCode::kTooLarge: return "too_large";
    case WireErrorCode::kParse: return "parse";
    case WireErrorCode::kTimeout: return "timeout";
    case WireErrorCode::kShuttingDown: return "shutting_down";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kClosed: return "closed";
    case WireErrorCode::kCorrupt: return "corrupt";
    case WireErrorCode::kEvicted: return "evicted";
  }
  return "unknown";
}

namespace {

std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

std::uint16_t get_u16(std::string_view payload, std::size_t offset) {
  if (payload.size() < offset + 2) {
    throw WireError(WireErrorCode::kBadFrame, "payload too short for u16");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  return static_cast<std::uint16_t>(p[offset] | (p[offset + 1] << 8));
}

std::uint32_t get_u32(std::string_view payload, std::size_t offset) {
  if (payload.size() < offset + 4) {
    throw WireError(WireErrorCode::kBadFrame, "payload too short for u32");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  return static_cast<std::uint32_t>(p[offset]) |
         (static_cast<std::uint32_t>(p[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(p[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(p[offset + 3]) << 24);
}

std::uint64_t get_u64(std::string_view payload, std::size_t offset) {
  if (payload.size() < offset + 8) {
    throw WireError(WireErrorCode::kBadFrame, "payload too short for u64");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[offset + static_cast<std::size_t>(i)];
  }
  return v;
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

void write_frame(Socket& sock, FrameType type, std::string_view payload,
                 int timeout_ms, const std::atomic<bool>* cancel) {
  // One contiguous buffer per frame: header + payload in a single send so
  // small frames never straddle two TCP pushes.  The CRC covers the
  // length+type prefix and the payload (the crc field itself is excluded).
  std::string buf;
  buf.reserve(kFrameHeaderBytes + payload.size());
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.push_back(static_cast<char>(type));
  const std::uint32_t crc =
      crc32(payload.data(), payload.size(), crc32(buf.data(), 5));
  put_u32(buf, crc);
  buf.append(payload);
  sock.send_all(buf.data(), buf.size(), timeout_ms, cancel);
}

std::optional<Frame> read_frame(Socket& sock, std::uint32_t max_payload,
                                int timeout_ms,
                                const std::atomic<bool>* cancel) {
  unsigned char header[kFrameHeaderBytes];
  // The first byte distinguishes "peer hung up between frames" (fine)
  // from "peer hung up mid-frame" (an error recv_exact raises).
  const std::size_t got = sock.recv_some(header, 1, timeout_ms, cancel);
  if (got == 0) return std::nullopt;
  sock.recv_exact(header + 1, sizeof header - 1, timeout_ms, cancel);

  const std::uint32_t length = static_cast<std::uint32_t>(header[0]) |
                               (static_cast<std::uint32_t>(header[1]) << 8) |
                               (static_cast<std::uint32_t>(header[2]) << 16) |
                               (static_cast<std::uint32_t>(header[3]) << 24);
  if (length > max_payload) {
    throw WireError(WireErrorCode::kTooLarge,
                    "frame payload of " + std::to_string(length) +
                        " bytes exceeds the " + std::to_string(max_payload) +
                        "-byte limit");
  }
  const std::uint32_t wire_crc =
      static_cast<std::uint32_t>(header[5]) |
      (static_cast<std::uint32_t>(header[6]) << 8) |
      (static_cast<std::uint32_t>(header[7]) << 16) |
      (static_cast<std::uint32_t>(header[8]) << 24);
  Frame frame;
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.resize(length);
  if (length > 0) {
    sock.recv_exact(frame.payload.data(), length, timeout_ms, cancel);
  }
  const std::uint32_t computed =
      crc32(frame.payload.data(), frame.payload.size(), crc32(header, 5));
  if (computed != wire_crc) {
    throw WireError(WireErrorCode::kCorrupt,
                    "frame CRC mismatch (type " +
                        std::to_string(static_cast<int>(frame.type)) + ", " +
                        std::to_string(length) + " payload bytes): bytes "
                        "damaged in flight");
  }
  return frame;
}

std::string encode_hello(std::uint16_t version, std::string_view text) {
  std::string payload;
  put_u16(payload, version);
  payload.append(text);
  return payload;
}

std::pair<std::uint16_t, std::string> decode_hello(std::string_view payload) {
  const std::uint16_t version = get_u16(payload, 0);
  return {version, std::string(payload.substr(2))};
}

std::string encode_map_begin(const MapBeginInfo& info) {
  std::string payload(1, static_cast<char>(info.flags));
  put_u32(payload, info.deadline_ms);
  put_u64(payload, info.trace_id);
  put_u64(payload, info.parent_span_id);
  return payload;
}

MapBeginInfo decode_map_begin(std::string_view payload) {
  if (payload.size() != kMapBeginBytes) {
    throw WireError(WireErrorCode::kBadFrame,
                    "MAP_BEGIN payload is " + std::to_string(payload.size()) +
                        " bytes; protocol v" +
                        std::to_string(kProtocolVersion) + " sends " +
                        std::to_string(kMapBeginBytes));
  }
  MapBeginInfo info;
  info.flags = static_cast<std::uint8_t>(payload[0]);
  info.deadline_ms = get_u32(payload, 1);
  info.trace_id = get_u64(payload, 5);
  info.parent_span_id = get_u64(payload, 13);
  return info;
}

std::string encode_busy(std::uint32_t retry_after_ms, std::string_view msg) {
  std::string payload;
  put_u32(payload, retry_after_ms);
  payload.append(msg);
  return payload;
}

std::pair<std::uint32_t, std::string> decode_busy(std::string_view payload) {
  const std::uint32_t retry = get_u32(payload, 0);
  return {retry, std::string(payload.substr(4))};
}

std::string encode_error(WireErrorCode code, std::string_view msg) {
  std::string payload;
  put_u16(payload, static_cast<std::uint16_t>(code));
  payload.append(msg);
  return payload;
}

std::pair<WireErrorCode, std::string> decode_error(std::string_view payload) {
  const auto code = static_cast<WireErrorCode>(get_u16(payload, 0));
  return {code, std::string(payload.substr(2))};
}

}  // namespace gnumap::serve
