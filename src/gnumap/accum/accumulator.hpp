// Genome accumulation buffers.
//
// "an array of floats representing the entire genomic sequence is stored in
//  the program's memory, with space allocated for each nucleotide... As each
//  read is aligned to the genome, probabilities are summed to obtain a
//  complete alignment."  (paper, Section VI-A)
//
// Three concrete layouts reproduce Section VI-B:
//  * NORM      — five floats per position (A, C, G, T, gap).
//  * CHARDISC  — one float (total mass) + five bytes (fractions of 255).
//  * CENTDISC  — one byte per position indexing a 256-centroid codebook,
//                plus one float for the total; adds go through repeated
//                nearest-centroid requantization (faithfully lossy).
//
// The paper's per-position layout is kept byte for byte, but the genome is
// not allocated up front: all three layouts share one paged store, a fixed
// page table over the buffer's range whose pages (kPagePositions positions
// each) are allocated zeroed on first touch by add(), merge() or
// from_bytes().  A zeroed row is exactly the empty state of every layout,
// and an untouched page reads back as zeros, so a buffer behaves as the
// dense whole-genome array while holding only the pages reads landed on.
// memory_bytes() counts resident pages; a fully touched buffer holds
// size() * bytes_per_position() bytes, the Table II quantity.
//
// The interface is deliberately narrow: the mapper only ever adds a 5-vector
// at a position, the caller only ever reads a 5-vector back (scanning only
// the resident ranges), and the mpsim reduction only ever merges two
// buffers of the same kind and range.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gnumap {

/// Track vector at one genome position: expected read mass per
/// A, C, G, T, gap.
using TrackVector = std::array<float, 5>;

enum class AccumKind : std::uint8_t { kNorm = 0, kCharDisc = 1, kCentDisc = 2 };

/// Parses "norm" / "chardisc" / "centdisc"; throws ConfigError otherwise.
AccumKind accum_kind_from_string(const std::string& name);
const char* accum_kind_name(AccumKind kind);

/// Global genome positions [begin, end).
struct PositionRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

class Accumulator {
 public:
  /// Positions per page of the store (the last page may be shorter).
  static constexpr unsigned kPageShift = 12;
  static constexpr std::uint64_t kPagePositions = std::uint64_t{1}
                                                  << kPageShift;

  virtual ~Accumulator();
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;

  /// Number of positions covered ([begin, begin+size) in global coords).
  std::uint64_t size() const { return size_; }
  /// Global genome position of slot 0.
  std::uint64_t begin() const { return begin_; }

  /// Adds `delta` (nonnegative mass per track) at global position `pos`.
  /// Positions outside [begin, begin+size) are ignored (the genome-partition
  /// mode clips window flanks that spill past a segment).
  virtual void add(std::uint64_t pos, const TrackVector& delta) = 0;

  /// Reads back the accumulated 5-vector at global position `pos`.
  virtual TrackVector counts(std::uint64_t pos) const = 0;

  /// Merges another buffer of the same kind and range into this one.
  /// Throws ConfigError on kind/range mismatch.
  virtual void merge(const Accumulator& other) = 0;

  /// The resident positions, one ascending run per resident page.  Every
  /// position outside them reads back as zeros.
  std::vector<PositionRange> resident_ranges() const;

  /// Serializes the resident pages (page index + page rows each) for the
  /// mpsim reduction and checkpoints; an untouched buffer serializes to no
  /// bytes.  from_bytes replaces the whole state with the encoded pages of
  /// a buffer of the same kind and range.
  std::vector<std::uint8_t> to_bytes() const;
  void from_bytes(const std::vector<std::uint8_t>& bytes);

  /// Bytes of storage per genome position for this layout (the Table II
  /// quantity), excluding fixed overhead shared across positions.
  double bytes_per_position() const {
    return static_cast<double>(row_bytes_);
  }
  /// Heap bytes held by the resident pages.
  std::uint64_t memory_bytes() const {
    return resident_positions_ * row_bytes_;
  }

  virtual AccumKind kind() const = 0;

 protected:
  /// A buffer over [begin, begin+size) whose positions are `row_bytes`
  /// wide; an all-zero row must be the layout's empty state.
  Accumulator(std::uint64_t begin, std::uint64_t size, std::size_t row_bytes);

  /// The row of `pos`, allocating its page on first touch; nullptr when
  /// `pos` is outside the range.
  std::uint8_t* row(std::uint64_t pos) {
    const std::uint64_t offset = pos - begin_;
    if (pos < begin_ || offset >= size_) return nullptr;
    std::uint8_t* page = pages_[offset >> kPageShift];
    if (page == nullptr) page = allocate_page(offset >> kPageShift);
    return page + (offset & (kPagePositions - 1)) * row_bytes_;
  }
  /// The row of `pos`, or nullptr when `pos` is outside the range or its
  /// page is not resident (the row would read as zeros).
  const std::uint8_t* find_row(std::uint64_t pos) const {
    const std::uint64_t offset = pos - begin_;
    if (pos < begin_ || offset >= size_) return nullptr;
    const std::uint8_t* page = pages_[offset >> kPageShift];
    if (page == nullptr) return nullptr;
    return page + (offset & (kPagePositions - 1)) * row_bytes_;
  }

  /// Checks `other` has this buffer's kind and range, then calls
  /// fn(this_row, other_row) for every row of every page resident in
  /// `other`, in ascending order.  Pages `other` never touched are
  /// skipped: every layout's merge with an empty row is the identity.
  template <class Fn>
  void merge_rows(const Accumulator& other, Fn&& fn) {
    check_same_shape(other);
    for (std::uint64_t p = 0; p < pages_.size(); ++p) {
      const std::uint8_t* src = other.pages_[p];
      if (src == nullptr) continue;
      std::uint8_t* dst = pages_[p] != nullptr ? pages_[p] : allocate_page(p);
      const std::uint64_t n = page_positions(p);
      for (std::uint64_t i = 0; i < n; ++i) {
        fn(dst + i * row_bytes_, src + i * row_bytes_);
      }
    }
  }

 private:
  std::uint8_t* allocate_page(std::uint64_t page);
  std::uint64_t page_positions(std::uint64_t page) const;
  void release_pages();
  void check_same_shape(const Accumulator& other) const;

  std::uint64_t begin_;
  std::uint64_t size_;
  std::size_t row_bytes_;
  std::uint64_t resident_positions_ = 0;
  std::vector<std::uint8_t*> pages_;  ///< owned; nullptr = not resident
};

/// How CENTDISC converts real-valued vectors into centroid space; see
/// centdisc_accumulator.hpp.  Ignored by the other layouts.
enum class CentDiscQuantize : std::uint8_t { kApproximate = 0, kNearest = 1 };

/// Creates a buffer of `kind` covering [begin, begin+size).
std::unique_ptr<Accumulator> make_accumulator(
    AccumKind kind, std::uint64_t begin, std::uint64_t size,
    CentDiscQuantize centdisc_quantize = CentDiscQuantize::kApproximate);

}  // namespace gnumap
