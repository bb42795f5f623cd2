// Tests for the three genome accumulation layouts (Section VI-B).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/accum/centdisc_accumulator.hpp"
#include "gnumap/accum/chardisc_accumulator.hpp"
#include "gnumap/accum/codebook.hpp"
#include "gnumap/accum/norm_accumulator.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/rng.hpp"

namespace gnumap {
namespace {

TEST(AccumKind, FromString) {
  EXPECT_EQ(accum_kind_from_string("norm"), AccumKind::kNorm);
  EXPECT_EQ(accum_kind_from_string("chardisc"), AccumKind::kCharDisc);
  EXPECT_EQ(accum_kind_from_string("centdisc"), AccumKind::kCentDisc);
  EXPECT_THROW(accum_kind_from_string("bogus"), ConfigError);
}

TEST(AccumKind, Names) {
  EXPECT_STREQ(accum_kind_name(AccumKind::kNorm), "NORM");
  EXPECT_STREQ(accum_kind_name(AccumKind::kCharDisc), "CHARDISC");
  EXPECT_STREQ(accum_kind_name(AccumKind::kCentDisc), "CENTDISC");
}

// ---------------------------------------------------------------------------
// NORM

TEST(NormAccumulator, ExactAddition) {
  NormAccumulator accum(100, 50);
  accum.add(110, {1.0f, 0.5f, 0.0f, 0.0f, 0.25f});
  accum.add(110, {0.5f, 0.5f, 0.0f, 0.0f, 0.0f});
  const auto counts = accum.counts(110);
  EXPECT_FLOAT_EQ(counts[0], 1.5f);
  EXPECT_FLOAT_EQ(counts[1], 1.0f);
  EXPECT_FLOAT_EQ(counts[4], 0.25f);
}

TEST(NormAccumulator, OutOfRangeIgnored) {
  NormAccumulator accum(100, 50);
  accum.add(99, {1, 1, 1, 1, 1});
  accum.add(150, {1, 1, 1, 1, 1});
  for (std::uint64_t pos = 100; pos < 150; ++pos) {
    for (const float v : accum.counts(pos)) EXPECT_FLOAT_EQ(v, 0.0f);
  }
  // Reads outside the range return zeros too.
  for (const float v : accum.counts(99)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(NormAccumulator, SerializeRoundTrip) {
  NormAccumulator a(0, 20);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    a.add(rng.next_below(20),
          {static_cast<float>(rng.next_double()), 0.1f, 0.2f, 0.0f, 0.0f});
  }
  NormAccumulator b(0, 20);
  b.from_bytes(a.to_bytes());
  for (std::uint64_t pos = 0; pos < 20; ++pos) {
    EXPECT_EQ(a.counts(pos), b.counts(pos));
  }
}

TEST(NormAccumulator, MergeEqualsCombinedAdds) {
  NormAccumulator a(0, 10), b(0, 10), combined(0, 10);
  a.add(3, {1, 0, 0, 0, 0});
  b.add(3, {0, 2, 0, 0, 0});
  b.add(7, {0, 0, 1, 0, 0});
  combined.add(3, {1, 0, 0, 0, 0});
  combined.add(3, {0, 2, 0, 0, 0});
  combined.add(7, {0, 0, 1, 0, 0});
  a.merge(b);
  for (std::uint64_t pos = 0; pos < 10; ++pos) {
    EXPECT_EQ(a.counts(pos), combined.counts(pos));
  }
}

TEST(NormAccumulator, MergeRejectsMismatch) {
  NormAccumulator a(0, 10);
  NormAccumulator b(0, 11);
  EXPECT_THROW(a.merge(b), ConfigError);
  CharDiscAccumulator c(0, 10);
  EXPECT_THROW(a.merge(c), ConfigError);
}

/// Adds a unit 'A' at every position, making every page resident.
void touch_every_position(Accumulator& accum) {
  for (std::uint64_t pos = accum.begin(); pos < accum.begin() + accum.size();
       ++pos) {
    accum.add(pos, {1, 0, 0, 0, 0});
  }
}

TEST(NormAccumulator, BytesPerPosition) {
  NormAccumulator accum(0, 1000);
  EXPECT_DOUBLE_EQ(accum.bytes_per_position(), 20.0);
  EXPECT_EQ(accum.memory_bytes(), 0u);  // no page touched yet
  touch_every_position(accum);
  EXPECT_EQ(accum.memory_bytes(), 1000u * 20u);
}

// ---------------------------------------------------------------------------
// CHARDISC

TEST(CharDisc, PaperWorkedExamples) {
  // "If T were 1 and there were only a single a, then phi = [255,0,0,0,0]."
  auto shares = CharDiscAccumulator::quantize({1, 0, 0, 0, 0}, 1.0f);
  EXPECT_EQ(shares[0], 255);
  // "one a and one t -> [128, 0, 0, 127, 0]"
  shares = CharDiscAccumulator::quantize({1, 0, 0, 1, 0}, 2.0f);
  EXPECT_EQ(int(shares[0]) + int(shares[3]), 255);
  EXPECT_NEAR(int(shares[0]), 128, 1);
  // "254 a's and a single t -> [254, 0, 0, 1, 0]"
  shares = CharDiscAccumulator::quantize({254, 0, 0, 1, 0}, 255.0f);
  EXPECT_EQ(shares[0], 254);
  EXPECT_EQ(shares[3], 1);
}

TEST(CharDisc, SharesSumTo255WhenNonEmpty) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    TrackVector v;
    float total = 0.0f;
    for (auto& x : v) {
      x = static_cast<float>(rng.next_double() * 10.0);
      total += x;
    }
    const auto shares = CharDiscAccumulator::quantize(v, total);
    int sum = 0;
    for (const auto s : shares) sum += s;
    EXPECT_EQ(sum, 255);
  }
}

TEST(CharDisc, RoundTripErrorBounded) {
  CharDiscAccumulator accum(0, 4);
  NormAccumulator exact(0, 4);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    TrackVector delta{};
    delta[rng.next_below(5)] = 0.5f + static_cast<float>(rng.next_double());
    accum.add(1, delta);
    exact.add(1, delta);
  }
  const auto approx = accum.counts(1);
  const auto truth = exact.counts(1);
  float total = 0.0f;
  for (const float v : truth) total += v;
  for (int k = 0; k < 5; ++k) {
    // Quantization error per track is bounded by a few /255 steps of the
    // total, compounded over adds.
    EXPECT_NEAR(approx[static_cast<std::size_t>(k)],
                truth[static_cast<std::size_t>(k)], 0.05f * total + 0.05f);
  }
}

TEST(CharDisc, SaturationBeyond255) {
  // Accumulate 300 units of A, then one unit of T: the T signal is nearly
  // invisible after saturation — the paper's documented limitation.
  CharDiscAccumulator accum(0, 1);
  for (int i = 0; i < 300; ++i) accum.add(0, {1, 0, 0, 0, 0});
  accum.add(0, {0, 0, 0, 1, 0});
  const auto counts = accum.counts(0);
  // The single T among 301 total is at most one 1/255 share.
  EXPECT_LE(counts[3], 301.0f / 255.0f + 1e-3f);
}

TEST(CharDisc, SerializeRoundTrip) {
  CharDiscAccumulator a(10, 16);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    TrackVector delta{};
    delta[rng.next_below(5)] = 1.0f;
    a.add(10 + rng.next_below(16), delta);
  }
  CharDiscAccumulator b(10, 16);
  b.from_bytes(a.to_bytes());
  for (std::uint64_t pos = 10; pos < 26; ++pos) {
    EXPECT_EQ(a.counts(pos), b.counts(pos));
  }
}

TEST(CharDisc, MergePreservesTotals) {
  CharDiscAccumulator a(0, 4), b(0, 4);
  a.add(2, {3, 0, 0, 0, 0});
  b.add(2, {0, 0, 2, 0, 0});
  a.merge(b);
  const auto counts = a.counts(2);
  float total = 0.0f;
  for (const float v : counts) total += v;
  EXPECT_NEAR(total, 5.0f, 1e-3f);
  EXPECT_NEAR(counts[0], 3.0f, 0.1f);
  EXPECT_NEAR(counts[2], 2.0f, 0.1f);
}

TEST(CharDisc, BytesPerPosition) {
  CharDiscAccumulator accum(0, 1000);
  EXPECT_DOUBLE_EQ(accum.bytes_per_position(), 9.0);
}

TEST(CharDisc, MemoryBytesCountTouchedPositions) {
  CharDiscAccumulator accum(0, 1000);
  EXPECT_EQ(accum.memory_bytes(), 0u);
  touch_every_position(accum);
  EXPECT_EQ(accum.memory_bytes(), 1000u * 9u);
}

// ---------------------------------------------------------------------------
// Codebook / CENTDISC

TEST(Codebook, CentroidsAreDistributions) {
  const auto& book = CentroidCodebook::instance();
  for (int code = 1; code < CentroidCodebook::kSize; ++code) {
    float sum = 0.0f;
    for (const float v : book.centroid(static_cast<std::uint8_t>(code))) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f) << "code " << code;
  }
}

TEST(Codebook, EmptyCodeIsZero) {
  const auto& book = CentroidCodebook::instance();
  for (const float v : book.centroid(CentroidCodebook::kEmptyCode)) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Codebook, PureStatesQuantizeToThemselves) {
  const auto& book = CentroidCodebook::instance();
  // The paper's example: a single 'a' is [0.84, 0.04, 0.04, 0.04, 0.04].
  const auto code = book.quantize({1, 0, 0, 0, 0});
  const auto& centroid = book.centroid(code);
  EXPECT_GT(centroid[0], 0.8f);
}

TEST(Codebook, QuantizeIdempotent) {
  const auto& book = CentroidCodebook::instance();
  for (int code = 1; code < CentroidCodebook::kSize; ++code) {
    EXPECT_EQ(book.quantize(book.centroid(static_cast<std::uint8_t>(code))),
              code);
  }
}

TEST(Codebook, MergeWithEmptyIsIdentity) {
  const auto& book = CentroidCodebook::instance();
  for (int code = 0; code < CentroidCodebook::kSize; ++code) {
    EXPECT_EQ(book.merge(CentroidCodebook::kEmptyCode,
                         static_cast<std::uint8_t>(code)),
              code);
    EXPECT_EQ(book.merge(static_cast<std::uint8_t>(code),
                         CentroidCodebook::kEmptyCode),
              code);
  }
}

TEST(Codebook, TransitionStatesDenserThanTransversion) {
  // Count centroids whose two largest tracks are the A/G transition pair vs
  // the A/C transversion pair; the biological weighting makes the former
  // strictly more numerous.
  const auto& book = CentroidCodebook::instance();
  auto count_pair = [&](int a, int b) {
    int count = 0;
    for (int code = 1; code < CentroidCodebook::kSize; ++code) {
      const auto& c = book.centroid(static_cast<std::uint8_t>(code));
      int top = 0, second = 1;
      for (int k = 1; k < 5; ++k) {
        if (c[static_cast<std::size_t>(k)] >
            c[static_cast<std::size_t>(top)]) {
          second = top;
          top = k;
        } else if (k != top && c[static_cast<std::size_t>(k)] >
                                   c[static_cast<std::size_t>(second)]) {
          second = k;
        }
      }
      if ((top == a && second == b) || (top == b && second == a)) ++count;
    }
    return count;
  };
  EXPECT_GT(count_pair(0, 2), count_pair(0, 1));
}

TEST(CentDisc, SingleAddReadsBackApproximately) {
  CentDiscAccumulator accum(0, 2);
  accum.add(0, {2, 0, 0, 0, 0});
  const auto counts = accum.counts(0);
  float total = 0.0f;
  for (const float v : counts) total += v;
  EXPECT_NEAR(total, 2.0f, 1e-3f);
  EXPECT_GT(counts[0], 1.5f);  // smoothed pure-A centroid
}

TEST(CentDisc, RepeatedRequantizationDrifts) {
  // The documented pathology: after many adds, the readback can deviate
  // from the exact sum far more than CHARDISC does.
  CentDiscAccumulator cent(0, 1);
  CharDiscAccumulator chard(0, 1);
  NormAccumulator exact(0, 1);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    TrackVector delta{};
    delta[0] = 0.9f;
    delta[2] = 0.1f;  // A with a whiff of G
    cent.add(0, delta);
    chard.add(0, delta);
    exact.add(0, delta);
  }
  const auto truth = exact.counts(0);
  const auto c1 = cent.counts(0);
  const auto c2 = chard.counts(0);
  double err_cent = 0.0, err_char = 0.0;
  for (int k = 0; k < 5; ++k) {
    err_cent += std::fabs(c1[static_cast<std::size_t>(k)] -
                          truth[static_cast<std::size_t>(k)]);
    err_char += std::fabs(c2[static_cast<std::size_t>(k)] -
                          truth[static_cast<std::size_t>(k)]);
  }
  EXPECT_GT(err_cent, err_char);
}

TEST(CentDisc, ApproximateClassifierPure) {
  const auto& book = CentroidCodebook::instance();
  const auto code = CentDiscAccumulator::approximate_code(
      book, {10.0f, 0.2f, 0.1f, 0.0f, 0.0f});
  EXPECT_EQ(code, book.pure_code(0));
}

TEST(CentDisc, ApproximateClassifierSnpEventFlipsMajority) {
  // 20% secondary mass: the paper-style classifier labels this as a SNP in
  // progress toward the secondary base — whose anchor state has *more* mass
  // on the secondary base than on the current majority.
  const auto& book = CentroidCodebook::instance();
  const auto code = CentDiscAccumulator::approximate_code(
      book, {8.0f, 0.0f, 2.0f, 0.0f, 0.0f});
  EXPECT_EQ(code, book.snp_code(0, 2));
  const auto& state = book.centroid(code);
  EXPECT_GT(state[2], state[0]);  // the attractor
}

TEST(CentDisc, ApproximateClassifierHet) {
  const auto& book = CentroidCodebook::instance();
  const auto code = CentDiscAccumulator::approximate_code(
      book, {5.0f, 0.0f, 4.5f, 0.0f, 0.0f});
  EXPECT_EQ(code, book.het_code(0, 2));
}

TEST(CentDisc, ApproximateClassifierUniform) {
  const auto& book = CentroidCodebook::instance();
  const auto code = CentDiscAccumulator::approximate_code(
      book, {1.0f, 1.0f, 1.0f, 1.0f, 1.0f});
  EXPECT_EQ(code, book.uniform_code());
}

TEST(CentDisc, ApproximateClassifierEmpty) {
  const auto& book = CentroidCodebook::instance();
  EXPECT_EQ(CentDiscAccumulator::approximate_code(book, {}),
            CentroidCodebook::kEmptyCode);
}

TEST(CentDisc, NearestModeMoreAccurateThanApproximate) {
  // An A position with ~15% G error mass: approximate mode walks into the
  // SNP/het attractor; nearest mode stays close to the truth.
  CentDiscAccumulator approx(0, 1, CentDiscQuantize::kApproximate);
  CentDiscAccumulator nearest(0, 1, CentDiscQuantize::kNearest);
  NormAccumulator exact(0, 1);
  for (int i = 0; i < 40; ++i) {
    const TrackVector delta =
        (i % 7 == 0) ? TrackVector{0.1f, 0.0f, 0.9f, 0.0f, 0.0f}
                     : TrackVector{0.95f, 0.0f, 0.05f, 0.0f, 0.0f};
    approx.add(0, delta);
    nearest.add(0, delta);
    exact.add(0, delta);
  }
  const auto truth = exact.counts(0);
  double err_approx = 0.0, err_nearest = 0.0;
  for (int k = 0; k < 5; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    err_approx += std::fabs(approx.counts(0)[ks] - truth[ks]);
    err_nearest += std::fabs(nearest.counts(0)[ks] - truth[ks]);
  }
  EXPECT_LT(err_nearest, err_approx);
  // The approximate walk must not preserve the A majority faithfully;
  // nearest keeps A dominant as in the exact counts.
  EXPECT_GT(nearest.counts(0)[0], nearest.counts(0)[2]);
}

TEST(CentDisc, SerializeRoundTrip) {
  CentDiscAccumulator a(5, 8);
  Rng rng(15);
  for (int i = 0; i < 40; ++i) {
    TrackVector delta{};
    delta[rng.next_below(5)] = 1.0f;
    a.add(5 + rng.next_below(8), delta);
  }
  CentDiscAccumulator b(5, 8);
  b.from_bytes(a.to_bytes());
  for (std::uint64_t pos = 5; pos < 13; ++pos) {
    EXPECT_EQ(a.counts(pos), b.counts(pos));
    EXPECT_EQ(a.code_at(pos), b.code_at(pos));
  }
}

TEST(CentDisc, MergeUsesTableAndAddsTotals) {
  CentDiscAccumulator a(0, 1), b(0, 1);
  a.add(0, {4, 0, 0, 0, 0});
  b.add(0, {0, 0, 0, 4, 0});
  a.merge(b);
  const auto counts = a.counts(0);
  float total = 0.0f;
  for (const float v : counts) total += v;
  EXPECT_NEAR(total, 8.0f, 1e-3f);  // totals add exactly
  // Composition went through the equal-weight table: roughly half A, half T.
  EXPECT_GT(counts[0], 2.0f);
  EXPECT_GT(counts[3], 2.0f);
}

TEST(CentDisc, MemoryBytesCountTouchedPositions) {
  CentDiscAccumulator accum(0, 1000);
  EXPECT_EQ(accum.memory_bytes(), 0u);
  touch_every_position(accum);
  EXPECT_EQ(accum.memory_bytes(), 1000u * 5u);
}

TEST(CentDisc, BytesPerPositionSmallest) {
  CentDiscAccumulator cent(0, 100);
  CharDiscAccumulator chard(0, 100);
  NormAccumulator norm(0, 100);
  EXPECT_LT(cent.bytes_per_position(), chard.bytes_per_position());
  EXPECT_LT(chard.bytes_per_position(), norm.bytes_per_position());
}

// ---------------------------------------------------------------------------
// Factory

TEST(Factory, MakesEveryKind) {
  for (const auto kind :
       {AccumKind::kNorm, AccumKind::kCharDisc, AccumKind::kCentDisc}) {
    const auto accum = make_accumulator(kind, 7, 11);
    EXPECT_EQ(accum->kind(), kind);
    EXPECT_EQ(accum->begin(), 7u);
    EXPECT_EQ(accum->size(), 11u);
  }
}

class AccumulatorContract : public ::testing::TestWithParam<AccumKind> {};

TEST_P(AccumulatorContract, AddReadbackTotalsConsistent) {
  const auto accum = make_accumulator(GetParam(), 0, 32);
  Rng rng(19);
  std::array<double, 32> expected_totals{};
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t pos = rng.next_below(32);
    TrackVector delta{};
    delta[rng.next_below(5)] = 1.0f;
    accum->add(pos, delta);
    expected_totals[pos] += 1.0;
  }
  for (std::uint64_t pos = 0; pos < 32; ++pos) {
    float total = 0.0f;
    for (const float v : accum->counts(pos)) {
      EXPECT_GE(v, 0.0f);
      total += v;
    }
    // Totals are preserved by all three layouts (only composition degrades).
    EXPECT_NEAR(total, expected_totals[pos], expected_totals[pos] * 0.01 + 0.01);
  }
}

TEST_P(AccumulatorContract, SerializedMergeMatchesLocalMerge) {
  const auto a1 = make_accumulator(GetParam(), 0, 16);
  const auto a2 = make_accumulator(GetParam(), 0, 16);
  const auto b = make_accumulator(GetParam(), 0, 16);
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    TrackVector delta{};
    delta[rng.next_below(5)] = 1.0f;
    const std::uint64_t pos = rng.next_below(16);
    if (i % 2 == 0) {
      a1->add(pos, delta);
      a2->add(pos, delta);
    } else {
      b->add(pos, delta);
    }
  }
  // Merge via serialization (the mpsim reduction path).
  const auto c = make_accumulator(GetParam(), 0, 16);
  c->from_bytes(b->to_bytes());
  a1->merge(*c);
  a2->merge(*b);
  for (std::uint64_t pos = 0; pos < 16; ++pos) {
    EXPECT_EQ(a1->counts(pos), a2->counts(pos));
  }
}

// ---------------------------------------------------------------------------
// Paged store vs the dense layouts it replaced

/// The dense whole-range buffers the paged store replaced, kept as the
/// reference: every position allocated up front, same per-add arithmetic.
class DenseOracle {
 public:
  DenseOracle(AccumKind kind, std::uint64_t begin, std::uint64_t size)
      : kind_(kind),
        begin_(begin),
        norm_(size, TrackVector{}),
        totals_(size, 0.0f),
        shares_(size, std::array<std::uint8_t, 5>{}),
        codes_(size, CentroidCodebook::kEmptyCode) {}

  void add(std::uint64_t pos, const TrackVector& delta) {
    if (pos < begin_ || pos - begin_ >= norm_.size()) return;
    const std::size_t s = pos - begin_;
    const auto& book = CentroidCodebook::instance();
    TrackVector real{};
    float total = 0.0f;
    for (std::size_t k = 0; k < 5; ++k) {
      switch (kind_) {
        case AccumKind::kNorm:
          norm_[s][k] += delta[k];
          break;
        case AccumKind::kCharDisc:
          real[k] = totals_[s] * static_cast<float>(shares_[s][k]) / 255.0f +
                    delta[k];
          break;
        case AccumKind::kCentDisc:
          real[k] = totals_[s] * book.centroid(codes_[s])[k] + delta[k];
          break;
      }
      total += real[k];
    }
    if (kind_ == AccumKind::kCharDisc) {
      shares_[s] = CharDiscAccumulator::quantize(real, total);
      totals_[s] = total;
    } else if (kind_ == AccumKind::kCentDisc && total > 0.0f) {
      codes_[s] = CentDiscAccumulator::approximate_code(book, real);
      totals_[s] = total;
    }
  }

  TrackVector counts(std::uint64_t pos) const {
    TrackVector out{};
    if (pos < begin_ || pos - begin_ >= norm_.size()) return out;
    const std::size_t s = pos - begin_;
    for (std::size_t k = 0; k < 5; ++k) {
      switch (kind_) {
        case AccumKind::kNorm:
          out[k] = norm_[s][k];
          break;
        case AccumKind::kCharDisc:
          out[k] = totals_[s] * static_cast<float>(shares_[s][k]) / 255.0f;
          break;
        case AccumKind::kCentDisc:
          out[k] = totals_[s] *
                   CentroidCodebook::instance().centroid(codes_[s])[k];
          break;
      }
    }
    return out;
  }

  void merge(const DenseOracle& other) {
    const auto& book = CentroidCodebook::instance();
    for (std::size_t s = 0; s < norm_.size(); ++s) {
      switch (kind_) {
        case AccumKind::kNorm:
          for (std::size_t k = 0; k < 5; ++k) norm_[s][k] += other.norm_[s][k];
          break;
        case AccumKind::kCharDisc:
          if (other.totals_[s] > 0.0f) add(begin_ + s, other.counts(begin_ + s));
          break;
        case AccumKind::kCentDisc:
          codes_[s] = book.merge(codes_[s], other.codes_[s]);
          totals_[s] += other.totals_[s];
          break;
      }
    }
  }

 private:
  AccumKind kind_;
  std::uint64_t begin_;
  std::vector<TrackVector> norm_;
  std::vector<float> totals_;
  std::vector<std::array<std::uint8_t, 5>> shares_;
  std::vector<std::uint8_t> codes_;
};

class PagedStore : public ::testing::TestWithParam<AccumKind> {};

TEST_P(PagedStore, RandomOpsMatchDenseOracleBitwise) {
  constexpr std::uint64_t kPage = Accumulator::kPagePositions;
  // Ranged (begin not page-aligned), three pages, the last one partial.
  const std::uint64_t begin = 3 * kPage - 100;
  const std::uint64_t size = 2 * kPage + 777;
  const std::uint64_t end = begin + size;
  const AccumKind kind = GetParam();
  Rng rng(29 + static_cast<std::uint64_t>(kind));

  // Positions straddling both page boundaries and the range ends, plus
  // uniform ones; some fall outside the range and must be ignored.
  const std::vector<std::uint64_t> hot = {
      begin - 1, begin, begin + kPage - 1, begin + kPage,
      begin + 2 * kPage - 1, begin + 2 * kPage, end - 1, end, end + 9, 0};
  auto random_pos = [&]() -> std::uint64_t {
    if (rng.next_below(3) == 0) return hot[rng.next_below(hot.size())];
    return begin + rng.next_below(size / 3);  // keep the last page sparse
  };
  auto random_delta = [&]() {
    TrackVector delta{};
    delta[rng.next_below(5)] = static_cast<float>(rng.next_double()) + 0.25f;
    if (rng.next_below(2) == 0) {
      delta[rng.next_below(5)] += static_cast<float>(rng.next_double());
    }
    return delta;
  };
  auto expect_identical = [&](const Accumulator& paged,
                              const DenseOracle& dense) {
    for (const std::uint64_t pos : hot) {
      const TrackVector a = paged.counts(pos), b = dense.counts(pos);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), sizeof a), 0) << pos;
    }
    for (std::uint64_t pos = begin; pos < end; ++pos) {
      const TrackVector a = paged.counts(pos), b = dense.counts(pos);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), sizeof a), 0) << pos;
    }
  };

  auto paged = make_accumulator(kind, begin, size);
  DenseOracle dense(kind, begin, size);
  EXPECT_TRUE(paged->to_bytes().empty());
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 7) {
      const std::uint64_t pos = random_pos();
      const TrackVector delta = random_delta();
      paged->add(pos, delta);
      dense.add(pos, delta);
    } else if (op < 9) {
      auto other = make_accumulator(kind, begin, size);
      DenseOracle other_dense(kind, begin, size);
      for (int i = 0; i < 20; ++i) {
        const std::uint64_t pos = random_pos();
        const TrackVector delta = random_delta();
        other->add(pos, delta);
        other_dense.add(pos, delta);
      }
      if (op == 8) {  // merge through the wire format, as mpsim does
        auto decoded = make_accumulator(kind, begin, size);
        decoded->from_bytes(other->to_bytes());
        other = std::move(decoded);
      }
      paged->merge(*other);
      dense.merge(other_dense);
    } else {
      auto decoded = make_accumulator(kind, begin, size);
      decoded->add(begin, {1, 0, 0, 0, 0});  // from_bytes replaces state
      decoded->from_bytes(paged->to_bytes());
      EXPECT_EQ(decoded->memory_bytes(), paged->memory_bytes());
      paged = std::move(decoded);
    }
  }
  expect_identical(*paged, dense);

  // The last page stayed untouched apart from its boundary hits; every
  // position with mass lies in a resident range, and memory counts
  // exactly the resident positions.
  std::uint64_t resident = 0;
  for (const PositionRange& run : paged->resident_ranges()) {
    EXPECT_GE(run.begin, begin);
    EXPECT_LE(run.end, end);
    resident += run.end - run.begin;
  }
  EXPECT_EQ(paged->memory_bytes(),
            static_cast<std::uint64_t>(resident *
                                       paged->bytes_per_position()));
  const auto ranges = paged->resident_ranges();
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    bool any = false;
    for (const float v : dense.counts(pos)) any |= v != 0.0f;
    if (!any) continue;
    bool covered = false;
    for (const PositionRange& run : ranges) {
      covered |= pos >= run.begin && pos < run.end;
    }
    ASSERT_TRUE(covered) << pos;
  }
}

TEST_P(PagedStore, PagesAreAllocatedOnFirstTouch) {
  constexpr std::uint64_t kPage = Accumulator::kPagePositions;
  const std::uint64_t size = 2 * kPage + 10;  // last page: 10 positions
  const auto accum = make_accumulator(GetParam(), 5, size);
  const auto bpp = static_cast<std::uint64_t>(accum->bytes_per_position());
  EXPECT_EQ(accum->memory_bytes(), 0u);
  EXPECT_TRUE(accum->resident_ranges().empty());

  accum->add(4, {1, 0, 0, 0, 0});  // below the range: ignored
  accum->add(5 + size, {1, 0, 0, 0, 0});  // past the range: ignored
  EXPECT_EQ(accum->memory_bytes(), 0u);

  accum->add(5 + size - 1, {0, 1, 0, 0, 0});  // the partial last page
  EXPECT_EQ(accum->memory_bytes(), 10 * bpp);
  accum->add(5 + kPage - 1, {0, 0, 1, 0, 0});  // the first page
  EXPECT_EQ(accum->memory_bytes(), (kPage + 10) * bpp);
  const auto ranges = accum->resident_ranges();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].begin, 5u);
  EXPECT_EQ(ranges[0].end, 5 + kPage);
  EXPECT_EQ(ranges[1].begin, 5 + 2 * kPage);
  EXPECT_EQ(ranges[1].end, 5 + size);

  // The untouched middle page reads as zeros and ships no bytes.
  for (const float v : accum->counts(5 + kPage + 7)) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(accum->to_bytes().size(), 2 * sizeof(std::uint64_t) +
                                          (kPage + 10) * bpp);
}

TEST_P(PagedStore, FromBytesRejectsMalformedEncodings) {
  const auto a = make_accumulator(GetParam(), 0, 100);
  a->add(3, {1, 0, 0, 0, 0});
  auto bytes = a->to_bytes();
  const auto b = make_accumulator(GetParam(), 0, 100);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(b->from_bytes(truncated), ConfigError);
  auto bad_page = bytes;
  bad_page[0] = 7;  // page 7 of a one-page buffer
  EXPECT_THROW(b->from_bytes(bad_page), ConfigError);
  auto repeated = bytes;
  repeated.insert(repeated.end(), bytes.begin(), bytes.end());
  EXPECT_THROW(b->from_bytes(repeated), ConfigError);
  b->from_bytes(bytes);
  EXPECT_EQ(b->counts(3), a->counts(3));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PagedStore,
                         ::testing::Values(AccumKind::kNorm,
                                           AccumKind::kCharDisc,
                                           AccumKind::kCentDisc));

INSTANTIATE_TEST_SUITE_P(AllKinds, AccumulatorContract,
                         ::testing::Values(AccumKind::kNorm,
                                           AccumKind::kCharDisc,
                                           AccumKind::kCentDisc));

}  // namespace
}  // namespace gnumap
