// Wire serialization for the fleet's scatter/gather shard protocol: read
// batches (router -> shard, SHARD_READS frames) and pre-epilogue candidate
// partials (shard -> router, RESULT_PARTIAL frames).
//
// Floats travel as raw IEEE-754 bit patterns (little-endian, like every
// other wire integer), so a partial's log-likelihood and column
// contributions arrive on the router bit-identical to what the shard's
// scalar kernel computed — the foundation of the router's byte-identity
// contract.  Candidates are shipped in seeder order including the
// window-filtered and failed-alignment placeholders, because both consume
// a max_candidates slot in a single-daemon run and the router must see
// them to truncate the merged list identically (read_mapper.hpp,
// RawCandidate).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gnumap/core/read_mapper.hpp"
#include "gnumap/io/read.hpp"

namespace gnumap::fleet {

/// SHARD_READS payload: the io::encode_reads codec (io/read_codec.hpp),
/// with its errors typed for the wire as WireError(kBadFrame).
std::string serialize_reads(std::span<const Read> reads);

/// io::decode_reads; throws WireError(kBadFrame) on any malformed payload
/// (short buffer, trailing bytes).
std::vector<Read> deserialize_reads(std::string_view payload);

/// RESULT_PARTIAL payload: u32 read count, then per read u16 candidate
/// count + per candidate a state byte (filtered/ok/reverse), u32 votes,
/// u64 diagonal, and — for ok candidates only — u64 window begin, the
/// log-likelihood's f64 bits, u32 column count and 5 f32 bit patterns per
/// column (the ColumnContributions tracks; column_mass is diagnostic-only
/// and never shipped).
std::string serialize_partials(
    const std::vector<std::vector<RawCandidate>>& per_read);

/// Inverse of serialize_partials; throws WireError(kBadFrame) on any
/// malformed payload.
std::vector<std::vector<RawCandidate>> deserialize_partials(
    std::string_view payload);

}  // namespace gnumap::fleet
