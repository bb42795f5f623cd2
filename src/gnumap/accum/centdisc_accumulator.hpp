// CENTDISC layout: centroid discretization (paper, Section VI-B.2).
//
// Per position: one byte indexing the shared 256-centroid codebook plus one
// float for the total mass.  Every add decodes the centroid to real space,
// adds the delta, and requantizes to the nearest centroid — "the centroid
// method performs significant rounding approximations each time a new
// sequence is added", which is exactly why the paper found its accuracy
// unacceptable (Table III).  Merges between ranks use the precomputed
// equal-weight 256x256 table, as described in the paper; the totals add
// exactly but the composition ignores the operands' relative weights.
#pragma once

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/accum/codebook.hpp"

namespace gnumap {

// CentDiscQuantize (declared in accumulator.hpp) selects the conversion
// back into centroid space:
//
// kApproximate is the paper-faithful default: "converting from continuous
// values to the discretized gamma either requires approximation or a
// somewhat exhaustive search"; GNUMAP chose the approximation, modeled here
// as classifying the composition as pure / SNP-event / heterozygous /
// uniform by its top two tracks.  Per the paper's own a->g example, a
// mixture with a 10-35% secondary base is labeled as a *SNP in progress*
// whose state puts the majority on the destination base — an attractor
// that dilutes or flips the evidence at noisy positions and drives the
// accuracy loss of Table III.
//
// kNearest is the exhaustive search (our extension): exact nearest-centroid
// quantization, which removes the attractor and most of the accuracy loss
// at a ~5x cost per add.
class CentDiscAccumulator final : public Accumulator {
 public:
  CentDiscAccumulator(
      std::uint64_t begin, std::uint64_t size,
      CentDiscQuantize mode = CentDiscQuantize::kApproximate);

  void add(std::uint64_t pos, const TrackVector& delta) override;
  TrackVector counts(std::uint64_t pos) const override;
  void merge(const Accumulator& other) override;
  AccumKind kind() const override { return AccumKind::kCentDisc; }

  /// The centroid code currently stored at a position (tests/diagnostics).
  std::uint8_t code_at(std::uint64_t pos) const;

  CentDiscQuantize quantize_mode() const { return mode_; }

  /// The approximate composition classifier (exposed for tests).
  static std::uint8_t approximate_code(const CentroidCodebook& codebook,
                                       const TrackVector& values);

 private:
  /// A row is the float total followed by the centroid code; the zeroed
  /// row is the empty state because kEmptyCode is 0.
  static constexpr std::size_t kRowBytes = sizeof(float) + 1;
  static_assert(CentroidCodebook::kEmptyCode == 0);

  const CentroidCodebook& codebook_;
  CentDiscQuantize mode_;
};

}  // namespace gnumap
