// NORM layout: five floats per genome position.
//
// This is the paper's baseline: exact accumulation, 20 bytes per position.
#pragma once

#include "gnumap/accum/accumulator.hpp"

namespace gnumap {

class NormAccumulator final : public Accumulator {
 public:
  NormAccumulator(std::uint64_t begin, std::uint64_t size)
      : Accumulator(begin, size, sizeof(TrackVector)) {}

  void add(std::uint64_t pos, const TrackVector& delta) override;
  TrackVector counts(std::uint64_t pos) const override;
  void merge(const Accumulator& other) override;
  AccumKind kind() const override { return AccumKind::kNorm; }
};

}  // namespace gnumap
