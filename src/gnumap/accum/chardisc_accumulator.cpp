#include "gnumap/accum/chardisc_accumulator.hpp"

#include <algorithm>
#include <cstring>

namespace gnumap {

namespace {

float row_total(const std::uint8_t* row) {
  float total;
  std::memcpy(&total, row, sizeof total);
  return total;
}

TrackVector decode_row(const std::uint8_t* row) {
  const float total = row_total(row);
  const std::uint8_t* share = row + sizeof(float);
  TrackVector out;
  for (int k = 0; k < 5; ++k) {
    out[static_cast<std::size_t>(k)] =
        total * static_cast<float>(share[k]) / 255.0f;
  }
  return out;
}

// Back to real space: share/255 * total, add the delta, requantize against
// the new total.
void add_to_row(std::uint8_t* row, const TrackVector& delta) {
  const float old_total = row_total(row);
  std::uint8_t* share = row + sizeof(float);
  TrackVector real;
  float new_total = 0.0f;
  for (int k = 0; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    real[ks] = old_total * static_cast<float>(share[k]) / 255.0f + delta[ks];
    new_total += real[ks];
  }
  const auto quantized = CharDiscAccumulator::quantize(real, new_total);
  std::memcpy(share, quantized.data(), quantized.size());
  std::memcpy(row, &new_total, sizeof new_total);
}

}  // namespace

std::array<std::uint8_t, 5> CharDiscAccumulator::quantize(
    const TrackVector& values, float total) {
  std::array<std::uint8_t, 5> shares{};
  if (!(total > 0.0f)) return shares;
  // Largest-remainder method: floor each share, then hand the leftover
  // units to the largest remainders so the shares sum to exactly 255.
  std::array<float, 5> exact;
  std::array<int, 5> base;
  int used = 0;
  for (int k = 0; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    exact[ks] = std::clamp(values[ks] / total, 0.0f, 1.0f) * 255.0f;
    base[ks] = static_cast<int>(exact[ks]);
    used += base[ks];
  }
  std::array<int, 5> order{0, 1, 2, 3, 4};
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const float ra = exact[static_cast<std::size_t>(a)] -
                     static_cast<float>(base[static_cast<std::size_t>(a)]);
    const float rb = exact[static_cast<std::size_t>(b)] -
                     static_cast<float>(base[static_cast<std::size_t>(b)]);
    return ra > rb;
  });
  int leftover = 255 - used;
  for (int idx = 0; idx < 5 && leftover > 0; ++idx, --leftover) {
    ++base[static_cast<std::size_t>(order[static_cast<std::size_t>(idx)])];
  }
  for (int k = 0; k < 5; ++k) {
    shares[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(
        std::clamp(base[static_cast<std::size_t>(k)], 0, 255));
  }
  return shares;
}

void CharDiscAccumulator::add(std::uint64_t pos, const TrackVector& delta) {
  if (std::uint8_t* slot = row(pos)) add_to_row(slot, delta);
}

TrackVector CharDiscAccumulator::counts(std::uint64_t pos) const {
  const std::uint8_t* slot = find_row(pos);
  return slot != nullptr ? decode_row(slot) : TrackVector{};
}

void CharDiscAccumulator::merge(const Accumulator& other) {
  merge_rows(other, [](std::uint8_t* dst, const std::uint8_t* src) {
    if (row_total(src) > 0.0f) add_to_row(dst, decode_row(src));
  });
}

}  // namespace gnumap
