// Batched, vectorized Pair-HMM forward/backward — the mapper's hot kernel.
//
// The scalar PairHmm (forward_backward.hpp) sweeps one (read, window) DP at
// a time; the within-row dependency chain of f_GY (each cell reads its left
// neighbour) caps its throughput well below what the hardware allows.  This
// engine instead exploits *inter-task* parallelism: many independent
// alignment problems are collected into a batch and swept together, with one
// SIMD lane per problem, in structure-of-arrays form — the layout gpuPairHMM
// and Endeavor use.  Lanes never interact, so every per-lane arithmetic
// operation happens in exactly the same order as the scalar kernel and (FMA
// contraction being deliberately avoided) the results are bit-identical to
// PairHmm::align at every dispatch level, not merely "close".  The scalar
// routines in forward_backward.cpp remain the reference oracle; the
// equivalence suite (tests/test_phmm_batched.cpp) holds the two together.
//
// Two scheduling/precision knobs sit on top of the lane engine:
//
//  * Length binning (on by default, `bin_slack`): tasks are sorted by DP
//    shape and nearby shapes are packed into one sweep using masked kernels,
//    so lanes retire together instead of waiting out the longest read of the
//    batch.  Masking is exact arithmetic (multiply by 1.0/0.0), so binned
//    results remain bit-identical to the scalar oracle; docs/KERNELS.md §7.
//  * FP32 lanes (`Precision::kSingle`, off by default): the same recursions
//    in single precision at twice the lane count, writing widened doubles
//    downstream.  Scores are approximate; the mapper recomputes any read
//    whose decision lands within a margin of a call threshold with the
//    scalar double oracle, keeping SNP output bit-identical (KERNELS.md §8).
//
// The full kernel-math spec — the recursion actually implemented, the two
// documented deviations from the paper's printed equations, the row-
// rescaling invariant, the SoA batch layout, and the dispatch matrix — lives
// in docs/KERNELS.md.
//
// Dispatch: scalar (1 lane), SSE2 (2 lanes), AVX2 (4 lanes), selected at
// runtime from CPUID; fp32 doubles each width.  The GNUMAP_SIMD environment
// variable ("scalar", "sse2", "avx2", "auto") overrides the automatic choice
// for any component that asks for SimdLevel::kAuto; an explicit non-auto
// request (tests, benchmarks) wins over the environment.  Requests above
// what the host supports are clamped, never rejected.  GNUMAP_PHMM_FP32
// plays the same role for Precision::kAuto.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "gnumap/phmm/forward_backward.hpp"
#include "gnumap/phmm/params.hpp"
#include "gnumap/phmm/pwm.hpp"

namespace gnumap::phmm {

/// Vector instruction tier the batched kernel runs at.  Values are ordered:
/// a level can always be clamped downward to a supported one.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,  ///< one lane; portable reference path
  kSse2 = 1,    ///< 2 x f64 / 4 x f32 lanes (baseline on x86-64)
  kAvx2 = 2,    ///< 4 x f64 / 8 x f32 lanes
  kAuto = 3,    ///< resolve from GNUMAP_SIMD, else the best supported level
};

/// Human-readable name ("scalar", "sse2", "avx2", "auto").
const char* simd_level_name(SimdLevel level);

/// Best level this binary + CPU can execute (compile-time backend presence
/// AND runtime CPUID check; never returns kAuto).
SimdLevel max_supported_simd_level();

/// Resolves `requested` to a concrete, supported level.
///  * kAuto: the GNUMAP_SIMD environment variable decides if set (unknown
///    values are ignored); otherwise max_supported_simd_level().
///  * explicit levels are honoured but clamped to what the host supports.
SimdLevel resolve_simd_level(SimdLevel requested = SimdLevel::kAuto);

/// Lane element precision of the batched sweeps.  kDouble lanes are
/// bit-identical to the scalar oracle; kSingle lanes trade exactness for
/// twice the lane count (the mapper's recompute margin restores exact call
/// decisions — docs/KERNELS.md §8).
enum class Precision : std::uint8_t {
  kDouble = 0,
  kSingle = 1,
  kAuto = 2,  ///< resolve from GNUMAP_PHMM_FP32 (truthy => kSingle)
};

/// Human-readable name ("fp64", "fp32", "auto").
const char* precision_name(Precision precision);

/// Resolves kAuto against the GNUMAP_PHMM_FP32 environment variable
/// ("1"/"true"/"on"/"yes", case-insensitive, selects kSingle; anything else
/// — including unset — selects kDouble).  Explicit values pass through.
Precision resolve_precision(Precision requested = Precision::kAuto);

/// Default length-binning slack (DP cells of shape mismatch tolerated
/// within one pack, both dimensions).  Chosen so one pack never sweeps more
/// than a few percent padding on Illumina-length reads while still merging
/// the common off-by-a-few window-length variation the mapper produces.
inline constexpr std::size_t kDefaultBinSlack = 16;

/// Scheduler/precision options for BatchedForward::configure.
struct EngineOptions {
  SimdLevel simd = SimdLevel::kAuto;
  Precision precision = Precision::kAuto;
  /// Max (n, m) spread packed into one sweep; 0 disables binning (only
  /// identical shapes share a pack, the pre-binning behavior).
  std::size_t bin_slack = kDefaultBinSlack;
};

/// Wall-clock accounting for one batch of kernel sweeps.  Feeds MapStats and
/// from there the alpha-beta cost model and the Figure-4/Table-3 benches.
///
/// Every field counts sweeps, not distinct tasks: a task swept once by
/// run_forward() and again by a run(consume, tasks) survivor sweep adds its
/// cells and its task count twice.  (MapStats::dp_cells, by contrast,
/// counts each mapped candidate once.)
struct KernelTimings {
  /// Time inside the forward sweeps, including streaming finished rows into
  /// the per-task result matrices (the copy-out is fused into the sweep).
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;  ///< likewise for the backward sweeps
  /// Useful DP cells, (n+1)*(m+1) per swept task.  A forward-only sweep
  /// counts its cells once, like a forward+backward one.
  std::uint64_t cells = 0;
  /// DP cells swept including padding: width * (N+1) * (M+1) per pack.
  /// cells / swept_cells is the lane-occupancy the scheduler maximizes;
  /// cells / seconds is the GCUPS number reported to obs and the benches.
  std::uint64_t swept_cells = 0;
  std::uint64_t tasks = 0;  ///< tasks swept (a re-swept task counts again)

  KernelTimings& operator+=(const KernelTimings& other) {
    forward_seconds += other.forward_seconds;
    backward_seconds += other.backward_seconds;
    cells += other.cells;
    swept_cells += other.swept_cells;
    tasks += other.tasks;
    return *this;
  }
};

/// Per-task result header.  ok == false means no alignment path has nonzero
/// probability (or the task was degenerate: empty read or empty window); the
/// task's matrices then hold zeroed backward state exactly as a failed
/// PairHmm::align would leave them, and must not be used for posteriors.
struct BatchOutcome {
  std::uint64_t tag = 0;  ///< caller-supplied identifier, returned verbatim
  double log_likelihood = 0.0;  ///< log P(x, y); -inf when !ok
  bool ok = false;
};

/// Batched forward/backward engine.
///
/// Usage:
///   BatchedForward batch(params, BoundaryMode::kSemiGlobal);
///   batch.add(pwm_a, window_a, tag_a);   // pwm/window must outlive run()
///   batch.add(pwm_b, window_b, tag_b);
///   batch.run();
///   batch.outcome(0), batch.matrices(0), ...
///
/// Decide-then-condense (the mapper's path): run_forward() fills every
/// outcome(task) from the forward sweep alone; the caller decides which
/// tasks it still needs matrices for, and run(consume, tasks) sweeps only
/// those, forward and backward, draining each through `consume`:
///   batch.run_forward();
///   std::vector<std::size_t> keep = ...;  // chosen from the outcomes
///   batch.run(consume, keep);
/// Timings accumulate over both calls.
///
/// Reuse contract: the engine owns per-task AlignmentMatrices and all SoA
/// scratch, and retains their capacity across clear()/configure() cycles —
/// a long-lived instance (one per worker thread, inside MapperWorkspace)
/// stops allocating once it has seen the largest problem shape.  The Pwm and
/// window storage passed to add() is borrowed, not copied; it must stay
/// valid until run() returns.  Results are indexed by the task id add()
/// returned, in insertion order, regardless of how tasks were grouped into
/// SIMD packs internally.  Not thread-safe; use one instance per thread.
class BatchedForward {
 public:
  /// Default-constructed engines hold default parameters; call configure()
  /// (or the value constructor) before add()/run().
  BatchedForward() = default;

  explicit BatchedForward(const PhmmParams& params,
                          BoundaryMode mode = BoundaryMode::kSemiGlobal,
                          SimdLevel level = SimdLevel::kAuto);

  BatchedForward(const PhmmParams& params, BoundaryMode mode,
                 const EngineOptions& options);

  /// Re-points the engine at (params, mode, level) and clears any pending
  /// tasks, results, and timings.  Scratch capacity is retained.  Throws
  /// ConfigError if the parameters are invalid.
  void configure(const PhmmParams& params, BoundaryMode mode,
                 SimdLevel level = SimdLevel::kAuto);

  /// Full-options configure: SIMD level, lane precision, binning slack.
  void configure(const PhmmParams& params, BoundaryMode mode,
                 const EngineOptions& options);

  /// Drops pending tasks, results, and timings; keeps configuration and
  /// scratch capacity.
  void clear();

  /// Enqueues one (read-PWM, genome-window) alignment problem and returns
  /// its task id (dense, insertion-ordered).  `pwm` and the bytes behind
  /// `window` are borrowed until run() returns.
  std::size_t add(const Pwm& pwm, std::span<const std::uint8_t> window,
                  std::uint64_t tag = 0);

  /// Invoked once per task by the draining run() overload, in pack
  /// completion order (NOT insertion order).  matrices(task) is valid only
  /// for the duration of the call; outcome(task) stays valid afterwards.
  using TaskConsumer = std::function<void(std::size_t task)>;

  /// Sweeps every pending task: sorts tasks by DP shape, packs them into
  /// SIMD lanes (identical shapes into uniform packs; shapes within
  /// bin_slack of each other into masked packs), runs the forward and
  /// backward recursions lane-parallel, and streams the results into
  /// per-task matrices that stay valid until the next clear()/configure().
  /// Idempotent per batch: call once after the last add().
  void run();

  /// Like run(), but recycles a width-sized matrix pool instead of
  /// materializing every task: `consume` is called for each task as its
  /// pack finishes, while the matrices are still cache-hot, and the pool is
  /// reused for the next pack.  This is the mapper's path — per-task DRAM
  /// round trips would otherwise dominate large batches.  Tasks arrive in
  /// shape-grouped pack order, not insertion order; callers that need
  /// ordered results should write into positional slots keyed by task id.
  /// add()/run() must not be called from inside `consume`.
  void run(const TaskConsumer& consume);

  /// run(consume) over the subset `tasks` (ids from add(), each at most
  /// once) of the pending tasks.  Only those are swept and drained; every
  /// other task keeps the outcome it already had.  Every lane is
  /// bit-identical whatever pack it lands in, so a task's outcome and
  /// matrices match a full run's.
  void run(const TaskConsumer& consume, std::span<const std::size_t> tasks);

  /// Forward sweep only, over every pending task: fills outcome(task) —
  /// the log-likelihood and ok verdict, bit-identical to run()'s — with no
  /// backward sweep and no per-task matrices (the forward rows stream
  /// through the recycled pool).  matrices() is not valid afterwards.
  /// This is all a mapping decision needs: posterior weights depend only
  /// on the likelihoods (docs/KERNELS.md §5).
  void run_forward();

  std::size_t size() const { return tasks_.size(); }

  /// Valid after run(), indexed by task id.
  const BatchOutcome& outcome(std::size_t task) const {
    return outcomes_[task];
  }

  /// The six scaled DP matrices for `task`, laid out exactly as
  /// PairHmm::align produces them (valid for posterior extraction through
  /// condense_marginals / PairHmm::row_masses when outcome(task).ok).
  /// After run(): valid for every task.  Inside a run(consume) callback:
  /// valid only for the task being consumed (pool-backed).
  const AlignmentMatrices& matrices(std::size_t task) const;

  /// Timings accumulated since the last configure()/clear().
  const KernelTimings& timings() const { return timings_; }

  /// The concrete dispatch level the engine executes at (never kAuto).
  SimdLevel level() const { return level_; }
  /// The concrete lane precision (never kAuto).
  Precision precision() const { return precision_; }
  /// Length-binning slack in effect (0 = identical shapes only).
  std::size_t bin_slack() const { return bin_slack_; }
  const PhmmParams& params() const { return params_; }
  BoundaryMode mode() const { return mode_; }

 private:
  struct Task {
    const Pwm* pwm;
    std::span<const std::uint8_t> window;
    std::uint64_t tag;
  };

  /// Upper bound on any backend's lane width (AVX2 fp32 packs 8 lanes).
  static constexpr std::size_t kMaxWidth = 8;

  /// Lane-interleaved SoA scratch, one instance per lane element type: the
  /// full emission table (pstar), two ping-pong DP rows per matrix
  /// (fm..bgy), the contiguous per-lane rows staged for interleaving
  /// (row_stage), and the masked-pack column mask / backward-init rows.
  template <typename T>
  struct LaneScratch {
    std::vector<T> pstar, fm, fgx, fgy, bm, bgx, bgy;
    std::vector<T> row_stage;
    std::vector<T> colmask, binit_bm, binit_bgx, binit_bgy;
  };

  template <typename T>
  LaneScratch<T>& scratch() {
    if constexpr (std::is_same_v<T, double>) {
      return scratch64_;
    } else {
      return scratch32_;
    }
  }

  /// How a run treats each pack: materialize every task's matrices
  /// (run()), drain them through a consumer (run(consume)), or sweep
  /// forward only into the pool (run_forward()).
  enum class Sweep : std::uint8_t { kMaterialize, kDrain, kForwardOnly };

  /// Sweeps `subset`, or every pending task when it is absent.
  void run_impl(Sweep sweep, const TaskConsumer* consume,
                std::optional<std::span<const std::size_t>> subset = {});
  void run_pack(std::span<const std::size_t> task_ids, std::size_t n,
                std::size_t m, Sweep sweep, const TaskConsumer* consume);
  template <typename T>
  void run_pack_impl(std::span<const std::size_t> task_ids, std::size_t n,
                     std::size_t m, Sweep sweep, const TaskConsumer* consume);

  PhmmParams params_;
  BoundaryMode mode_ = BoundaryMode::kSemiGlobal;
  SimdLevel level_ = SimdLevel::kScalar;
  Precision precision_ = Precision::kDouble;
  std::size_t bin_slack_ = kDefaultBinSlack;

  std::vector<Task> tasks_;
  std::vector<BatchOutcome> outcomes_;
  std::vector<AlignmentMatrices> mats_;  // materialize-all storage (run())
  // Recycled pack slots (run(consume), run_forward()).
  std::vector<AlignmentMatrices> pool_;
  std::vector<std::size_t> order_;  // task ids sorted by shape
  // Pack currently being drained through a TaskConsumer: task id -> pool
  // slot, consulted by matrices() before mats_.
  std::size_t pack_task_[kMaxWidth] = {};
  const AlignmentMatrices* pack_mats_[kMaxWidth] = {};
  std::size_t pack_count_ = 0;

  LaneScratch<double> scratch64_;
  LaneScratch<float> scratch32_;
  // Write-only trash matrix absorbing padding-lane output of partial
  // uniform packs (masked packs never write padding lanes); always double,
  // like every destination matrix.
  std::vector<double> trash_;
  // Emission-fill scratch: per-lane mixed-emission tables and decoded
  // window symbols (lane-major, kMaxWidth x m); shared by both precisions.
  std::array<std::vector<double>, kMaxWidth> mixed_;
  std::vector<std::uint8_t> ycodes_;
  // Per-lane DP shapes of the pack being swept, plus the double-precision
  // chain row used to stage global-mode backward inits bit-exactly.
  std::size_t lane_n_[kMaxWidth] = {};
  std::size_t lane_m_[kMaxWidth] = {};
  std::vector<double> binit_chain_;

  KernelTimings timings_;
};

}  // namespace gnumap::phmm
