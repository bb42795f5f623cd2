// Binary codec for read batches: the one wire form used wherever reads
// cross a process or rank boundary — the fleet router's SHARD_READS frames
// and the mpsim ranks' read shipments and broadcasts.
//
// Layout (little-endian): u32 read count, then per read u16 name length +
// name + u32 base count + coded bases + Phred qualities.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gnumap/io/read.hpp"

namespace gnumap::io {

/// Encodes `reads`.  Throws ParseError when a read name exceeds 65535
/// bytes (the u16 length field).
std::string encode_reads(std::span<const Read> reads);

/// Inverse of encode_reads.  Throws ParseError on any malformed payload:
/// a short buffer anywhere, or trailing bytes after the last read.
std::vector<Read> decode_reads(std::string_view payload);

}  // namespace gnumap::io
