#include "gnumap/accum/centdisc_accumulator.hpp"

#include <cstring>

#include "gnumap/util/error.hpp"

namespace gnumap {

namespace {

float row_total(const std::uint8_t* row) {
  float total;
  std::memcpy(&total, row, sizeof total);
  return total;
}

std::uint8_t& row_code(std::uint8_t* row) { return row[sizeof(float)]; }
std::uint8_t row_code(const std::uint8_t* row) { return row[sizeof(float)]; }

}  // namespace

CentDiscAccumulator::CentDiscAccumulator(std::uint64_t begin,
                                         std::uint64_t size,
                                         CentDiscQuantize mode)
    : Accumulator(begin, size, kRowBytes),
      codebook_(CentroidCodebook::instance()),
      mode_(mode) {}

std::uint8_t CentDiscAccumulator::approximate_code(
    const CentroidCodebook& codebook, const TrackVector& values) {
  float total = 0.0f;
  for (const float v : values) total += v;
  if (!(total > 0.0f)) return CentroidCodebook::kEmptyCode;

  // Top two tracks.
  int major = 0, minor = 1;
  if (values[1] > values[0]) { major = 1; minor = 0; }
  for (int k = 2; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    if (values[ks] > values[static_cast<std::size_t>(major)]) {
      minor = major;
      major = k;
    } else if (values[ks] > values[static_cast<std::size_t>(minor)]) {
      minor = k;
    }
  }
  const float top2 = values[static_cast<std::size_t>(major)] +
                     values[static_cast<std::size_t>(minor)];
  const float minor_frac =
      top2 > 0.0f ? values[static_cast<std::size_t>(minor)] / top2 : 0.0f;
  // Background check: if the top two tracks carry less than 60% of the
  // mass the composition is noise.
  if (top2 < 0.6f * total) return codebook.uniform_code();
  if (minor_frac < 0.08f) return codebook.pure_code(major);
  if (minor_frac < 0.35f) {
    // "A SNP from <major> to <minor>": per the paper's example the state's
    // majority sits on the destination base.
    return codebook.snp_code(major, minor);
  }
  return codebook.het_code(major, minor);
}

void CentDiscAccumulator::add(std::uint64_t pos, const TrackVector& delta) {
  std::uint8_t* slot = row(pos);
  if (slot == nullptr) return;
  const float old_total = row_total(slot);
  const TrackVector& centroid = codebook_.centroid(row_code(slot));

  TrackVector real;
  float new_total = 0.0f;
  for (int k = 0; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    real[ks] = old_total * centroid[ks] + delta[ks];
    new_total += real[ks];
  }
  if (!(new_total > 0.0f)) return;
  row_code(slot) = mode_ == CentDiscQuantize::kNearest
                       ? codebook_.quantize(real)
                       : approximate_code(codebook_, real);
  std::memcpy(slot, &new_total, sizeof new_total);
}

TrackVector CentDiscAccumulator::counts(std::uint64_t pos) const {
  TrackVector out{};
  const std::uint8_t* slot = find_row(pos);
  if (slot == nullptr) return out;
  const float total = row_total(slot);
  const TrackVector& centroid = codebook_.centroid(row_code(slot));
  for (int k = 0; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    out[ks] = total * centroid[ks];
  }
  return out;
}

void CentDiscAccumulator::merge(const Accumulator& other) {
  // Paper-faithful reduction: composition via the equal-weight table,
  // totals added exactly.
  merge_rows(other, [&](std::uint8_t* dst, const std::uint8_t* src) {
    row_code(dst) = codebook_.merge(row_code(dst), row_code(src));
    const float total = row_total(dst) + row_total(src);
    std::memcpy(dst, &total, sizeof total);
  });
}

std::uint8_t CentDiscAccumulator::code_at(std::uint64_t pos) const {
  require(pos >= begin() && pos < begin() + size(),
          "CentDiscAccumulator::code_at: position out of range");
  const std::uint8_t* slot = find_row(pos);
  return slot != nullptr ? row_code(slot) : CentroidCodebook::kEmptyCode;
}

}  // namespace gnumap
