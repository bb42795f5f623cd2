#include "gnumap/accum/accumulator.hpp"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "gnumap/accum/centdisc_accumulator.hpp"
#include "gnumap/accum/chardisc_accumulator.hpp"
#include "gnumap/accum/norm_accumulator.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {

AccumKind accum_kind_from_string(const std::string& name) {
  if (name == "norm") return AccumKind::kNorm;
  if (name == "chardisc") return AccumKind::kCharDisc;
  if (name == "centdisc") return AccumKind::kCentDisc;
  throw ConfigError("unknown accumulator kind: '" + name +
                    "' (expected norm|chardisc|centdisc)");
}

const char* accum_kind_name(AccumKind kind) {
  switch (kind) {
    case AccumKind::kNorm:     return "NORM";
    case AccumKind::kCharDisc: return "CHARDISC";
    case AccumKind::kCentDisc: return "CENTDISC";
  }
  return "?";
}

Accumulator::Accumulator(std::uint64_t begin, std::uint64_t size,
                         std::size_t row_bytes)
    : begin_(begin),
      size_(size),
      row_bytes_(row_bytes),
      pages_((size + kPagePositions - 1) >> kPageShift, nullptr) {}

Accumulator::~Accumulator() { release_pages(); }

std::uint8_t* Accumulator::allocate_page(std::uint64_t page) {
  const std::uint64_t n = page_positions(page);
  auto* bytes = static_cast<std::uint8_t*>(std::calloc(n, row_bytes_));
  if (bytes == nullptr) throw std::bad_alloc();
  pages_[page] = bytes;
  resident_positions_ += n;
  return bytes;
}

std::uint64_t Accumulator::page_positions(std::uint64_t page) const {
  const std::uint64_t first = page << kPageShift;
  return size_ - first < kPagePositions ? size_ - first : kPagePositions;
}

void Accumulator::release_pages() {
  for (std::uint8_t*& page : pages_) {
    std::free(page);
    page = nullptr;
  }
  resident_positions_ = 0;
}

void Accumulator::check_same_shape(const Accumulator& other) const {
  require(other.kind() == kind() && other.begin_ == begin_ &&
              other.size_ == size_,
          std::string(accum_kind_name(kind())) +
              " merge: kind/range mismatch");
}

std::vector<PositionRange> Accumulator::resident_ranges() const {
  std::vector<PositionRange> ranges;
  for (std::uint64_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p] == nullptr) continue;
    const std::uint64_t first = begin_ + (p << kPageShift);
    ranges.push_back({first, first + page_positions(p)});
  }
  return ranges;
}

std::vector<std::uint8_t> Accumulator::to_bytes() const {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p] == nullptr) continue;
    const std::size_t at = bytes.size();
    const std::size_t payload = page_positions(p) * row_bytes_;
    bytes.resize(at + sizeof p + payload);
    std::memcpy(bytes.data() + at, &p, sizeof p);
    std::memcpy(bytes.data() + at + sizeof p, pages_[p], payload);
  }
  return bytes;
}

void Accumulator::from_bytes(const std::vector<std::uint8_t>& bytes) {
  // Validate the whole encoding before touching the current state.
  std::vector<std::pair<std::uint64_t, std::size_t>> pages;  // index, offset
  for (std::size_t at = 0; at < bytes.size();) {
    std::uint64_t p = 0;
    require(bytes.size() - at >= sizeof p,
            "Accumulator::from_bytes: truncated page header");
    std::memcpy(&p, bytes.data() + at, sizeof p);
    at += sizeof p;
    require(p < pages_.size() && (pages.empty() || p > pages.back().first),
            "Accumulator::from_bytes: page index out of order or range");
    const std::uint64_t payload = page_positions(p) * row_bytes_;
    require(bytes.size() - at >= payload,
            "Accumulator::from_bytes: truncated page");
    pages.emplace_back(p, at);
    at += payload;
  }
  release_pages();
  for (const auto& [p, at] : pages) {
    std::memcpy(allocate_page(p), bytes.data() + at,
                page_positions(p) * row_bytes_);
  }
}

std::unique_ptr<Accumulator> make_accumulator(
    AccumKind kind, std::uint64_t begin, std::uint64_t size,
    CentDiscQuantize centdisc_quantize) {
  switch (kind) {
    case AccumKind::kNorm:
      return std::make_unique<NormAccumulator>(begin, size);
    case AccumKind::kCharDisc:
      return std::make_unique<CharDiscAccumulator>(begin, size);
    case AccumKind::kCentDisc:
      return std::make_unique<CentDiscAccumulator>(begin, size,
                                                   centdisc_quantize);
  }
  throw ConfigError("make_accumulator: invalid kind");
}

}  // namespace gnumap
