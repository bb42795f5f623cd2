#include "gnumap/fleet/partials.hpp"

#include <cstring>

#include "gnumap/io/read_codec.hpp"
#include "gnumap/serve/wire.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap::fleet {

namespace {

using serve::get_u16;
using serve::get_u32;
using serve::get_u64;
using serve::put_u16;
using serve::put_u32;
using serve::put_u64;
using serve::WireError;
using serve::WireErrorCode;

// Candidate state byte.
constexpr std::uint8_t kStateFiltered = 0x01;
constexpr std::uint8_t kStateOk = 0x02;
constexpr std::uint8_t kStateReverse = 0x04;

void put_f32(std::string& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(out, bits);
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

float get_f32(std::string_view payload, std::size_t offset) {
  const std::uint32_t bits = get_u32(payload, offset);
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double get_f64(std::string_view payload, std::size_t offset) {
  const std::uint64_t bits = get_u64(payload, offset);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void expect(std::string_view payload, std::size_t offset, std::size_t need,
            const char* what) {
  if (payload.size() - offset < need) {
    throw WireError(WireErrorCode::kBadFrame,
                    std::string("fleet partial payload truncated in ") + what);
  }
}

}  // namespace

std::string serialize_reads(std::span<const Read> reads) {
  try {
    return io::encode_reads(reads);
  } catch (const ParseError& e) {
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
}

std::vector<Read> deserialize_reads(std::string_view payload) {
  try {
    return io::decode_reads(payload);
  } catch (const ParseError& e) {
    throw WireError(WireErrorCode::kBadFrame, e.what());
  }
}

std::string serialize_partials(
    const std::vector<std::vector<RawCandidate>>& per_read) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(per_read.size()));
  for (const auto& cands : per_read) {
    if (cands.size() > 0xFFFF) {
      throw WireError(WireErrorCode::kBadFrame,
                      "candidate list exceeds 65535 entries");
    }
    put_u16(out, static_cast<std::uint16_t>(cands.size()));
    for (const RawCandidate& cand : cands) {
      std::uint8_t state = 0;
      if (cand.filtered) state |= kStateFiltered;
      if (cand.ok) state |= kStateOk;
      if (cand.reverse) state |= kStateReverse;
      out.push_back(static_cast<char>(state));
      put_u32(out, static_cast<std::uint32_t>(cand.votes));
      put_u64(out, cand.diagonal);
      if (!cand.ok) continue;
      put_u64(out, cand.site.window_begin);
      put_f64(out, cand.site.log_likelihood);
      const auto& tracks = cand.site.contributions.tracks;
      put_u32(out, static_cast<std::uint32_t>(tracks.size()));
      for (const auto& col : tracks) {
        for (float v : col) put_f32(out, v);
      }
    }
  }
  return out;
}

std::vector<std::vector<RawCandidate>> deserialize_partials(
    std::string_view payload) {
  std::size_t off = 0;
  const std::uint32_t nreads = get_u32(payload, off);
  off += 4;
  std::vector<std::vector<RawCandidate>> per_read;
  per_read.reserve(nreads);
  for (std::uint32_t r = 0; r < nreads; ++r) {
    const std::uint16_t ncand = get_u16(payload, off);
    off += 2;
    std::vector<RawCandidate> cands;
    cands.reserve(ncand);
    for (std::uint16_t c = 0; c < ncand; ++c) {
      expect(payload, off, 1, "candidate state");
      const auto state = static_cast<std::uint8_t>(payload[off]);
      off += 1;
      RawCandidate cand;
      cand.filtered = (state & kStateFiltered) != 0;
      cand.ok = (state & kStateOk) != 0;
      cand.reverse = (state & kStateReverse) != 0;
      cand.votes = static_cast<std::int32_t>(get_u32(payload, off));
      off += 4;
      cand.diagonal = get_u64(payload, off);
      off += 8;
      if (cand.ok) {
        cand.site.window_begin = get_u64(payload, off);
        off += 8;
        cand.site.log_likelihood = get_f64(payload, off);
        off += 8;
        cand.site.reverse = cand.reverse;
        const std::uint32_t ncols = get_u32(payload, off);
        off += 4;
        expect(payload, off, static_cast<std::size_t>(ncols) * 5 * 4,
               "column contributions");
        auto& tracks = cand.site.contributions.tracks;
        tracks.resize(ncols);
        for (std::uint32_t j = 0; j < ncols; ++j) {
          for (std::size_t k = 0; k < 5; ++k) {
            tracks[j][k] = get_f32(payload, off);
            off += 4;
          }
        }
      }
      cands.push_back(std::move(cand));
    }
    per_read.push_back(std::move(cands));
  }
  if (off != payload.size()) {
    throw WireError(WireErrorCode::kBadFrame,
                    "fleet partial payload has trailing bytes");
  }
  return per_read;
}

}  // namespace gnumap::fleet
