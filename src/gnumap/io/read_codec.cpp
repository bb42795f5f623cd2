#include "gnumap/io/read_codec.hpp"

#include <algorithm>
#include <cstdint>

#include "gnumap/util/error.hpp"

namespace gnumap::io {

namespace {

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian reader over a payload.
struct Reader {
  std::string_view payload;
  std::size_t off = 0;

  void need(std::size_t n, const char* what) const {
    if (payload.size() - off < n) {
      throw ParseError(std::string("read batch payload truncated in ") + what);
    }
  }
  std::uint64_t le(int bytes, const char* what) {
    need(static_cast<std::size_t>(bytes), what);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(payload[off + i]))
           << (8 * i);
    }
    off += static_cast<std::size_t>(bytes);
    return v;
  }
};

}  // namespace

std::string encode_reads(std::span<const Read> reads) {
  std::string out;
  put_le(out, reads.size(), 4);
  for (const Read& read : reads) {
    if (read.name.size() > 0xFFFF) {
      throw ParseError("read name exceeds 65535 bytes");
    }
    put_le(out, read.name.size(), 2);
    out.append(read.name);
    put_le(out, read.bases.size(), 4);
    out.append(reinterpret_cast<const char*>(read.bases.data()),
               read.bases.size());
    out.append(reinterpret_cast<const char*>(read.quals.data()),
               read.quals.size());
  }
  return out;
}

std::vector<Read> decode_reads(std::string_view payload) {
  Reader in{payload};
  const auto count = in.le(4, "read count");
  std::vector<Read> reads;
  reads.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, payload.size())));
  for (std::uint64_t i = 0; i < count; ++i) {
    Read read;
    const auto name_len = static_cast<std::size_t>(in.le(2, "name length"));
    in.need(name_len, "read name");
    read.name.assign(payload.substr(in.off, name_len));
    in.off += name_len;
    const auto len = static_cast<std::size_t>(in.le(4, "base count"));
    in.need(2 * len, "read bases");
    const auto* bytes =
        reinterpret_cast<const std::uint8_t*>(payload.data()) + in.off;
    read.bases.assign(bytes, bytes + len);
    read.quals.assign(bytes + len, bytes + 2 * len);
    in.off += 2 * len;
    reads.push_back(std::move(read));
  }
  if (in.off != payload.size()) {
    throw ParseError("read batch payload has trailing bytes");
  }
  return reads;
}

}  // namespace gnumap::io
