// CHARDISC layout: nucleotide-byte discretization (paper, Section VI-B.1).
//
// Per position: one float holding the total accumulated mass and five bytes
// holding each track's share as a fraction of 255.  An add converts the
// bytes back to real space (fraction * total), adds the delta, and
// requantizes against the new total.
//
// Faithful quirks from the paper:
//  * The largest-remainder rounding keeps the byte shares summing to 255
//    whenever the total is nonzero (the paper's worked example:
//    one 'a' + one 't' -> [128, 0, 0, 127, 0]).
//  * Saturation: "as the total number of sequences assigned to a particular
//    location increases beyond 255, the amount changed at a single character
//    becomes zero" — small deltas on top of a large total round away.
// (The prose says "dividing by 128" but every worked example uses the full
//  byte range; we follow the examples.  See DESIGN.md.)
#pragma once

#include "gnumap/accum/accumulator.hpp"

namespace gnumap {

class CharDiscAccumulator final : public Accumulator {
 public:
  CharDiscAccumulator(std::uint64_t begin, std::uint64_t size)
      : Accumulator(begin, size, kRowBytes) {}

  void add(std::uint64_t pos, const TrackVector& delta) override;
  TrackVector counts(std::uint64_t pos) const override;
  void merge(const Accumulator& other) override;
  AccumKind kind() const override { return AccumKind::kCharDisc; }

  /// Requantizes a real-valued 5-vector into shares of 255 using
  /// largest-remainder rounding.  Exposed for tests.
  static std::array<std::uint8_t, 5> quantize(const TrackVector& values,
                                              float total);

 private:
  /// A row is the float total followed by the five share bytes.
  static constexpr std::size_t kRowBytes = sizeof(float) + 5;
};

}  // namespace gnumap
