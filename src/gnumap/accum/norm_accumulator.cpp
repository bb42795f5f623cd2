#include "gnumap/accum/norm_accumulator.hpp"

#include <cstring>

namespace gnumap {

namespace {

// A row is the five track floats, A C G T gap.
void add_to_row(std::uint8_t* row, const TrackVector& delta) {
  TrackVector slot;
  std::memcpy(slot.data(), row, sizeof slot);
  for (std::size_t k = 0; k < slot.size(); ++k) slot[k] += delta[k];
  std::memcpy(row, slot.data(), sizeof slot);
}

}  // namespace

void NormAccumulator::add(std::uint64_t pos, const TrackVector& delta) {
  if (std::uint8_t* slot = row(pos)) add_to_row(slot, delta);
}

TrackVector NormAccumulator::counts(std::uint64_t pos) const {
  TrackVector out{};
  if (const std::uint8_t* slot = find_row(pos)) {
    std::memcpy(out.data(), slot, sizeof out);
  }
  return out;
}

void NormAccumulator::merge(const Accumulator& other) {
  merge_rows(other, [](std::uint8_t* dst, const std::uint8_t* src) {
    TrackVector rhs;
    std::memcpy(rhs.data(), src, sizeof rhs);
    add_to_row(dst, rhs);
  });
}

}  // namespace gnumap
