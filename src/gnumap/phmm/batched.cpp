#include "gnumap/phmm/batched.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/phmm/batched_kernels.hpp"
#include "gnumap/util/timer.hpp"

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>  // _mm_getcsr / _mm_setcsr
#define GNUMAP_PHMM_HAVE_MXCSR 1
#endif

namespace gnumap::phmm {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Flush-to-zero + denormals-are-zero for the duration of an fp32 pack.
/// The rescaled DP's off-diagonal mass decays geometrically and crosses
/// into the float-denormal range (~1e-38) within a few dozen cells of the
/// alignment band; without FTZ every such cell takes a microcode assist
/// and the fp32 sweep runs *slower* than fp64 on long reads.  Flushed
/// cells read as +0.0, which the fp32 error model already absorbs
/// (docs/KERNELS.md §8: any value this small is far below the recompute
/// margin's resolution).  MXCSR is restored on scope exit, so the fp64
/// kernels — and the scalar oracle they are bit-identical to — keep full
/// denormal semantics.
class DenormalFlushGuard {
 public:
  explicit DenormalFlushGuard(bool enable) {
#ifdef GNUMAP_PHMM_HAVE_MXCSR
    if (enable) {
      saved_ = _mm_getcsr();
      _mm_setcsr(saved_ | 0x8040u);  // FTZ (bit 15) | DAZ (bit 6)
      active_ = true;
    }
#else
    (void)enable;
#endif
  }
  ~DenormalFlushGuard() {
#ifdef GNUMAP_PHMM_HAVE_MXCSR
    if (active_) _mm_setcsr(saved_);
#endif
  }
  DenormalFlushGuard(const DenormalFlushGuard&) = delete;
  DenormalFlushGuard& operator=(const DenormalFlushGuard&) = delete;

 private:
#ifdef GNUMAP_PHMM_HAVE_MXCSR
  unsigned saved_ = 0;
  bool active_ = false;
#endif
};

detail::KernelBackend backend_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return detail::avx2_backend();
    case SimdLevel::kSse2:
      return detail::sse2_backend();
    default:
      return detail::scalar_backend();
  }
}

/// Sizes `v` to exactly `size` elements without clearing existing contents
/// (only a grown tail is value-initialized).  Used where every retained
/// element is overwritten before it is read.
template <typename T>
void resize_for_overwrite(std::vector<T>& v, std::size_t size) {
  if (v.size() != size) v.resize(size);
}

std::string lowered_copy(const char* value) {
  std::string lowered(value);
  for (char& ch : lowered) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return lowered;
}

/// Parses a GNUMAP_SIMD value; returns kAuto for unknown/empty strings (the
/// documented "ignored" behavior — a typo must not silently de-vectorize).
SimdLevel parse_simd_env(const char* value) {
  if (value == nullptr) return SimdLevel::kAuto;
  const std::string lowered = lowered_copy(value);
  if (lowered == "scalar" || lowered == "0") return SimdLevel::kScalar;
  if (lowered == "sse2" || lowered == "1") return SimdLevel::kSse2;
  if (lowered == "avx2" || lowered == "2") return SimdLevel::kAvx2;
  return SimdLevel::kAuto;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    default:
      return "auto";
  }
}

SimdLevel max_supported_simd_level() {
  if (detail::avx2_backend().width != 0 && detail::cpu_supports_avx2()) {
    return SimdLevel::kAvx2;
  }
  if (detail::sse2_backend().width != 0 && detail::cpu_supports_sse2()) {
    return SimdLevel::kSse2;
  }
  return SimdLevel::kScalar;
}

SimdLevel resolve_simd_level(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) {
    requested = parse_simd_env(std::getenv("GNUMAP_SIMD"));
  }
  const SimdLevel best = max_supported_simd_level();
  if (requested == SimdLevel::kAuto || requested > best) return best;
  return requested;
}

const char* precision_name(Precision precision) {
  switch (precision) {
    case Precision::kDouble:
      return "fp64";
    case Precision::kSingle:
      return "fp32";
    default:
      return "auto";
  }
}

Precision resolve_precision(Precision requested) {
  if (requested != Precision::kAuto) return requested;
  const char* value = std::getenv("GNUMAP_PHMM_FP32");
  if (value == nullptr) return Precision::kDouble;
  const std::string lowered = lowered_copy(value);
  if (lowered == "1" || lowered == "true" || lowered == "on" ||
      lowered == "yes") {
    return Precision::kSingle;
  }
  return Precision::kDouble;
}

BatchedForward::BatchedForward(const PhmmParams& params, BoundaryMode mode,
                               SimdLevel level) {
  configure(params, mode, level);
}

BatchedForward::BatchedForward(const PhmmParams& params, BoundaryMode mode,
                               const EngineOptions& options) {
  configure(params, mode, options);
}

void BatchedForward::configure(const PhmmParams& params, BoundaryMode mode,
                               SimdLevel level) {
  configure(params, mode, EngineOptions{.simd = level});
}

void BatchedForward::configure(const PhmmParams& params, BoundaryMode mode,
                               const EngineOptions& options) {
  params.validate();
  params_ = params;
  mode_ = mode;
  level_ = resolve_simd_level(options.simd);
  precision_ = resolve_precision(options.precision);
  bin_slack_ = options.bin_slack;
  clear();
}

void BatchedForward::clear() {
  tasks_.clear();
  outcomes_.clear();
  order_.clear();
  timings_ = KernelTimings{};
  // mats_ and the SoA scratch are deliberately kept: they are the capacity
  // cache that makes a long-lived engine allocation-free in steady state.
}

std::size_t BatchedForward::add(const Pwm& pwm,
                                std::span<const std::uint8_t> window,
                                std::uint64_t tag) {
  tasks_.push_back(Task{&pwm, window, tag});
  return tasks_.size() - 1;
}

void BatchedForward::run() { run_impl(Sweep::kMaterialize, nullptr); }

void BatchedForward::run(const TaskConsumer& consume) {
  run_impl(Sweep::kDrain, &consume);
}

void BatchedForward::run(const TaskConsumer& consume,
                         std::span<const std::size_t> tasks) {
  run_impl(Sweep::kDrain, &consume, tasks);
}

void BatchedForward::run_forward() { run_impl(Sweep::kForwardOnly, nullptr); }

const AlignmentMatrices& BatchedForward::matrices(std::size_t task) const {
  // Inside a run(consume) callback the task's matrices live in a pool slot;
  // packs are at most kMaxWidth wide, so a linear scan is cheapest.
  for (std::size_t k = 0; k < pack_count_; ++k) {
    if (pack_task_[k] == task) return *pack_mats_[k];
  }
  return mats_[task];
}

void BatchedForward::run_impl(
    Sweep sweep, const TaskConsumer* consume,
    std::optional<std::span<const std::size_t>> subset) {
  if (subset) {
    order_.assign(subset->begin(), subset->end());
  } else {
    order_.resize(tasks_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }
  const std::size_t count = order_.size();
  const detail::KernelBackend backend = backend_for(level_);
  const std::size_t width =
      precision_ == Precision::kSingle ? backend.width_f32 : backend.width;
  obs::TraceSpan span("batched_sweep", "phmm", "tasks",
                      static_cast<double>(count), "width",
                      static_cast<double>(width));
  const KernelTimings before = timings_;
  // Tasks outside a subset run keep their outcomes; every swept task's
  // outcome is overwritten below.
  outcomes_.resize(tasks_.size());
  if (sweep != Sweep::kMaterialize) {
    if (pool_.size() < kMaxWidth) pool_.resize(kMaxWidth);
  } else if (mats_.size() < count) {
    mats_.resize(count);  // never shrinks: capacity pool
  }

  // Sort tasks by DP shape so the packer sees monotone lengths.  Each pack
  // then greedily admits shapes within bin_slack of the pack's first task
  // (both dimensions): identical shapes form uniform packs, nearby shapes
  // form masked packs that are still bit-identical per lane, and slack 0
  // restores the PR 2 identical-shapes-only packing.  Sorting means the
  // spread inside a pack is the spread of adjacent order statistics, which
  // for Illumina-style length mixes is usually zero or tiny — that, not the
  // mask arithmetic, is where the occupancy win comes from.
  auto shape = [this](std::size_t t) {
    return std::pair<std::size_t, std::size_t>(tasks_[t].pwm->length(),
                                               tasks_[t].window.size());
  };
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) { return shape(a) < shape(b); });

  std::size_t begin = 0;
  while (begin < count) {
    const auto [n0, m0] = shape(order_[begin]);
    if (n0 == 0 || m0 == 0) {
      // Degenerate tasks mirror a failed PairHmm::align: zeroed matrices of
      // the nominal shape, -inf likelihood, no sweep.
      const std::size_t t = order_[begin];
      AlignmentMatrices& dst =
          sweep == Sweep::kMaterialize ? mats_[t] : pool_[0];
      if (sweep != Sweep::kForwardOnly) dst.reset(n0, m0);
      outcomes_[t] = BatchOutcome{tasks_[t].tag, kNegInf, false};
      ++timings_.tasks;
      if (consume != nullptr) {
        pack_task_[0] = t;
        pack_mats_[0] = &dst;
        pack_count_ = 1;
        (*consume)(t);
        pack_count_ = 0;
      }
      ++begin;
      continue;
    }
    // Grow the pack: lanes available, candidate non-degenerate, and both
    // shape dimensions within bin_slack of the pack's extremes.  n is
    // monotone under the sort but m is not, so the m spread tracks min and
    // max explicitly.
    std::size_t end = begin + 1;
    std::size_t max_n = n0;
    std::size_t min_m = m0;
    std::size_t max_m = m0;
    while (end < count && end - begin < width) {
      const auto [n2, m2] = shape(order_[end]);
      if (n2 == 0 || m2 == 0) break;
      if (n2 - n0 > bin_slack_) break;
      const std::size_t lo = std::min(min_m, m2);
      const std::size_t hi = std::max(max_m, m2);
      if (hi - lo > bin_slack_) break;
      max_n = n2;  // sorted: n2 >= max_n
      min_m = lo;
      max_m = hi;
      ++end;
    }
    run_pack(std::span<const std::size_t>(order_.data() + begin, end - begin),
             max_n, max_m, sweep, consume);
    begin = end;
  }

  // Publish this run's throughput: GCUPS over useful cells (padding
  // excluded — the honest number next to published Pair-HMM kernels) and
  // the lane occupancy the binner is there to maximize.
  const double delta_seconds = (timings_.forward_seconds - before.forward_seconds) +
                               (timings_.backward_seconds - before.backward_seconds);
  const std::uint64_t delta_cells = timings_.cells - before.cells;
  const std::uint64_t delta_swept = timings_.swept_cells - before.swept_cells;
  if (delta_swept > 0) {
    static obs::Gauge& occupancy = obs::registry().gauge(
        "gnumap_phmm_lane_occupancy",
        "Useful / swept DP cells of the last batched PHMM run (1.0 = no "
        "padding lanes or cells)");
    occupancy.set(static_cast<double>(delta_cells) /
                  static_cast<double>(delta_swept));
  }
  if (delta_cells > 0 && delta_seconds > 0.0) {
    static obs::Gauge& gcups = obs::registry().gauge(
        "gnumap_phmm_gcups",
        "Billions of useful DP cell updates per second of the last batched "
        "PHMM run (forward + backward, or forward only for run_forward)");
    gcups.set(static_cast<double>(delta_cells) / delta_seconds / 1e9);
  }
}

void BatchedForward::run_pack(std::span<const std::size_t> task_ids,
                              std::size_t n, std::size_t m, Sweep sweep,
                              const TaskConsumer* consume) {
  if (precision_ == Precision::kSingle) {
    run_pack_impl<float>(task_ids, n, m, sweep, consume);
  } else {
    run_pack_impl<double>(task_ids, n, m, sweep, consume);
  }
}

template <typename T>
void BatchedForward::run_pack_impl(std::span<const std::size_t> task_ids,
                                   std::size_t n, std::size_t m, Sweep sweep,
                                   const TaskConsumer* consume) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const detail::KernelBackend backend = backend_for(level_);
  const std::size_t W = kF32 ? backend.width_f32 : backend.width;
  const auto interleave = [&] {
    if constexpr (kF32) {
      return backend.interleave_f32;
    } else {
      return backend.interleave;
    }
  }();
  const std::size_t active = task_ids.size();
  const bool with_backward = sweep != Sweep::kForwardOnly;
  const std::size_t stride = m + 1;
  const std::size_t cells = (n + 1) * stride;
  const std::size_t row_w = stride * W;  // lane-interleaved row

  // Per-lane DP shapes.  When every live lane matches the pack shape the
  // uniform kernels run (no masks, fused transpose flush, trash-matrix
  // padding); otherwise the masked kernels keep each lane bit-identical to
  // a solo scalar align of its own (lane_n, lane_m) problem.
  bool uniform = true;
  for (std::size_t l = 0; l < kMaxWidth; ++l) lane_n_[l] = lane_m_[l] = 0;
  for (std::size_t l = 0; l < active; ++l) {
    const Task& task = tasks_[task_ids[l]];
    lane_n_[l] = task.pwm->length();
    lane_m_[l] = task.window.size();
    uniform = uniform && lane_n_[l] == n && lane_m_[l] == m;
  }

  // The kernels keep only two lane-interleaved rows per matrix (ping-pong)
  // and stream each finished row straight into the per-task matrices, so the
  // scratch footprint is one full emission table plus 12 rows.  Padding
  // lanes of a partial uniform pack stage zero emissions (so no stale mass,
  // or NaN from reused scratch, ever enters them) and get a trash matrix to
  // absorb their streamed output; masked packs never write padding lanes.
  LaneScratch<T>& sc = scratch<T>();
  resize_for_overwrite(sc.pstar, n * row_w);
  for (auto* buf : {&sc.fm, &sc.fgx, &sc.fgy, &sc.bm, &sc.bgx, &sc.bgy}) {
    resize_for_overwrite(*buf, 2 * row_w);
  }
  if (uniform && active < W) resize_for_overwrite(trash_, cells);

  // p*(i, y_j) per lane, flattened as pstar[((i-1)*(m+1) + j)*W + l] for
  // 1-based i, j — the lane-interleaved twin of the scalar kernel's layout.
  // Per lane: decode the window symbols once and compute the mixed-emission
  // table into reusable scratch; then each DP row is gathered contiguously
  // and interleaved into pstar_ with the backend's vector transpose.  Cells
  // outside a lane's own extent stage exact zeros — the masked recursions
  // rely on that to keep out-of-extent fm at +0.0.  The j == 0 slots of
  // each interleaved row are left untouched — neither sweep reads them
  // (emissions are 1-based in j).
  resize_for_overwrite(sc.row_stage, W * m);
  if (ycodes_.size() != W * m) ycodes_.resize(W * m);
  std::fill(sc.row_stage.begin() + active * m, sc.row_stage.end(), T(0));
  const T* stage[kMaxWidth];
  for (std::size_t l = 0; l < W; ++l) stage[l] = sc.row_stage.data() + l * m;
  for (std::size_t l = 0; l < active; ++l) {
    const Task& task = tasks_[task_ids[l]];
    task.pwm->mixed_emissions(params_, mixed_[l]);
    std::uint8_t* codes = ycodes_.data() + l * m;
    for (std::size_t j = 0; j < lane_m_[l]; ++j) {
      codes[j] = std::min<std::uint8_t>(task.window[j], 4);
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t l = 0; l < active; ++l) {
      T* out = sc.row_stage.data() + l * m;
      if (i <= lane_n_[l]) {
        const double* mixed_row = &mixed_[l][(i - 1) * 5];
        const std::uint8_t* codes = ycodes_.data() + l * m;
        const std::size_t ml = lane_m_[l];
        for (std::size_t j = 0; j < ml; ++j) {
          out[j] = static_cast<T>(mixed_row[codes[j]]);
        }
        std::fill(out + ml, out + m, T(0));
      } else {
        std::fill(out, out + m, T(0));
      }
    }
    interleave(&sc.pstar[(i - 1) * row_w + W], stage, m);
  }

  // Masked packs additionally stage the column mask and, when the pack
  // sweeps backward, the backward-init rows.  The init values are computed
  // per lane in double with the scalar kernel's exact expression trees
  // (then narrowed to T), so a double masked lane's backward matrices match
  // the oracle bit for bit.
  if (!uniform) {
    resize_for_overwrite(sc.colmask, row_w);
    for (std::size_t j = 0; j <= m; ++j) {
      for (std::size_t l = 0; l < W; ++l) {
        sc.colmask[j * W + l] =
            (l < active && j <= lane_m_[l]) ? T(1) : T(0);
      }
    }
  }
  if (!uniform && with_backward) {
    for (auto* buf : {&sc.binit_bm, &sc.binit_bgx, &sc.binit_bgy}) {
      resize_for_overwrite(*buf, row_w);
      std::fill(buf->begin(), buf->end(), T(0));
    }
    if (mode_ == BoundaryMode::kSemiGlobal) {
      // Free genome suffix: finishing anywhere in the last row costs
      // nothing; a path may not end in G_Y.
      for (std::size_t l = 0; l < active; ++l) {
        for (std::size_t j = 0; j <= lane_m_[l]; ++j) {
          sc.binit_bm[j * W + l] = T(1);
          sc.binit_bgx[j * W + l] = T(1);
        }
      }
    } else {
      // Global: within the last row, paths may still consume trailing
      // genome gaps — the same q*t chain the uniform kernel computes.
      const double q_t_mg = params_.q * params_.t_mg();
      const double q_t_gg = params_.q * params_.t_gg();
      resize_for_overwrite(binit_chain_, stride);
      for (std::size_t l = 0; l < active; ++l) {
        const std::size_t ml = lane_m_[l];
        binit_chain_[ml] = 1.0;
        for (std::size_t j = ml; j-- > 0;) {
          binit_chain_[j] = q_t_gg * binit_chain_[j + 1];
        }
        sc.binit_bm[ml * W + l] = T(1);
        sc.binit_bgx[ml * W + l] = T(1);
        sc.binit_bgy[ml * W + l] = T(1);
        for (std::size_t j = 0; j < ml; ++j) {
          sc.binit_bm[j * W + l] =
              static_cast<T>(q_t_mg * binit_chain_[j + 1]);
          sc.binit_bgy[j * W + l] = static_cast<T>(binit_chain_[j]);
          // bgx stays 0 below the corner: G_X needs another read base.
        }
      }
    }
  }

  // Size the destination matrices up front: the kernels stream every
  // finished row directly into them.  Uniform packs write all
  // (n+1)*(m+1) cells of all six matrices (boundary zeros included) with
  // padding lanes pointed at the shared trash matrix; masked packs write
  // exactly each live lane's own (lane_n+1)*(lane_m+1) cells.  In drain
  // and forward-only mode the destinations are the recycled pool slots —
  // after the first pack of a shape they are L2-hot, which is precisely the
  // point; a forward-only pack sizes and writes only the forward matrices.
  AlignmentMatrices* dst[kMaxWidth] = {};
  std::array<double*, kMaxWidth> out_fm, out_fgx, out_fgy, out_bm, out_bgx,
      out_bgy;
  for (std::size_t l = 0; l < W; ++l) {
    if (l < active) {
      dst[l] = sweep == Sweep::kMaterialize ? &mats_[task_ids[l]] : &pool_[l];
      AlignmentMatrices& mats = *dst[l];
      mats.n = lane_n_[l];
      mats.m = lane_m_[l];
      const std::size_t lane_cells = (lane_n_[l] + 1) * (lane_m_[l] + 1);
      for (auto field : {&AlignmentMatrices::fm, &AlignmentMatrices::fgx,
                         &AlignmentMatrices::fgy}) {
        resize_for_overwrite(mats.*field, lane_cells);
      }
      out_fm[l] = mats.fm.data();
      out_fgx[l] = mats.fgx.data();
      out_fgy[l] = mats.fgy.data();
      out_bm[l] = out_bgx[l] = out_bgy[l] = nullptr;
      if (with_backward) {
        for (auto field : {&AlignmentMatrices::bm, &AlignmentMatrices::bgx,
                           &AlignmentMatrices::bgy}) {
          resize_for_overwrite(mats.*field, lane_cells);
        }
        out_bm[l] = mats.bm.data();
        out_bgx[l] = mats.bgx.data();
        out_bgy[l] = mats.bgy.data();
      }
    } else if (uniform) {
      out_fm[l] = out_fgx[l] = out_fgy[l] = trash_.data();
      out_bm[l] = out_bgx[l] = out_bgy[l] = trash_.data();
    } else {
      out_fm[l] = out_fgx[l] = out_fgy[l] = nullptr;
      out_bm[l] = out_bgx[l] = out_bgy[l] = nullptr;
    }
  }

  const detail::PackConstants constants{
      params_.t_mm(), params_.t_mg(), params_.t_gm(), params_.t_gg(),
      params_.q,      mode_ == BoundaryMode::kSemiGlobal};
  alignas(64) std::array<double, kMaxWidth> log_scale{};
  alignas(64) std::array<double, kMaxWidth> log_likelihood{};
  std::array<std::uint8_t, kMaxWidth> ok{};
  detail::PackStateT<T> state;
  state.n = n;
  state.m = m;
  state.active = active;
  state.pstar = sc.pstar.data();
  state.fm = sc.fm.data();
  state.fgx = sc.fgx.data();
  state.fgy = sc.fgy.data();
  state.bm = sc.bm.data();
  state.bgx = sc.bgx.data();
  state.bgy = sc.bgy.data();
  state.out_fm = out_fm.data();
  state.out_fgx = out_fgx.data();
  state.out_fgy = out_fgy.data();
  state.out_bm = out_bm.data();
  state.out_bgx = out_bgx.data();
  state.out_bgy = out_bgy.data();
  state.log_scale = log_scale.data();
  state.log_likelihood = log_likelihood.data();
  state.ok = ok.data();
  if (!uniform) {
    state.colmask = sc.colmask.data();
    state.binit_bm = sc.binit_bm.data();
    state.binit_bgx = sc.binit_bgx.data();
    state.binit_bgy = sc.binit_bgy.data();
    state.lane_n = lane_n_;
    state.lane_m = lane_m_;
  }

  const auto forward = [&] {
    if constexpr (kF32) {
      return uniform ? backend.forward_f32 : backend.forward_masked_f32;
    } else {
      return uniform ? backend.forward : backend.forward_masked;
    }
  }();
  const auto backward = [&] {
    if constexpr (kF32) {
      return uniform ? backend.backward_f32 : backend.backward_masked_f32;
    } else {
      return uniform ? backend.backward : backend.backward_masked;
    }
  }();
  const DenormalFlushGuard ftz(kF32);
  Timer forward_timer;
  forward(constants, state);
  timings_.forward_seconds += forward_timer.seconds();
  if (with_backward) {
    Timer backward_timer;
    backward(constants, state);
    timings_.backward_seconds += backward_timer.seconds();
  }

  for (std::size_t l = 0; l < active; ++l) {
    const std::size_t t = task_ids[l];
    AlignmentMatrices& mats = *dst[l];
    mats.log_likelihood = log_likelihood[l];
    outcomes_[t] = BatchOutcome{tasks_[t].tag, log_likelihood[l], ok[l] != 0};
    const std::size_t lane_cells = (lane_n_[l] + 1) * (lane_m_[l] + 1);
    timings_.cells += lane_cells;
    if (ok[l] == 0 && with_backward) {
      // A failed scalar align never runs the backward sweep, leaving those
      // matrices zeroed; discard what the lane computed to match.
      mats.bm.assign(lane_cells, 0.0);
      mats.bgx.assign(lane_cells, 0.0);
      mats.bgy.assign(lane_cells, 0.0);
    }
  }
  timings_.tasks += active;
  timings_.swept_cells += W * cells;

  if (consume != nullptr) {
    for (std::size_t l = 0; l < active; ++l) {
      pack_task_[l] = task_ids[l];
      pack_mats_[l] = dst[l];
    }
    pack_count_ = active;
    for (std::size_t l = 0; l < active; ++l) (*consume)(task_ids[l]);
    pack_count_ = 0;
  }
}

}  // namespace gnumap::phmm
