// Mapping one read: seed -> PHMM forward/backward per candidate ->
// posterior-weighted marginal accumulation.
//
// This is the paper's Figure 1 steps (A) and (B).  The posterior mapping
// weight is what distinguishes GNUMAP from single-alignment mappers: each
// candidate site s contributes with weight
//     w_s = P_s / sum_s' P_s'
// (P_s = the site's total alignment likelihood), so reads mapping to
// repeats spread their evidence instead of being dropped or randomly
// assigned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gnumap/accum/accumulator.hpp"
#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/index/hash_index.hpp"
#include "gnumap/index/seeder.hpp"
#include "gnumap/io/output_chunk.hpp"
#include "gnumap/io/read.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/phmm/forward_backward.hpp"

namespace gnumap {

/// Working buffers reused across scoring calls; one per worker
/// thread (neither member is thread-safe).  Both members retain capacity
/// across calls, so a long-lived workspace stops allocating once it has seen
/// the largest read/window shape.
struct MapperWorkspace {
  AlignmentMatrices mats;       ///< scalar oracle (score_reads_raw, fp32 guard)
  phmm::BatchedForward batch;   ///< batched path (score_reads)
};

/// One scored candidate site with its condensed contributions.
struct ScoredSite {
  GenomePos window_begin = 0;
  double log_likelihood = 0.0;
  double weight = 0.0;  ///< posterior across the read's candidate sites
  bool reverse = false;
  ColumnContributions contributions;
};

/// One candidate in pre-epilogue form: the seeder's identity fields plus the
/// alignment outcome, *before* truncation-aware merging and the posterior
/// softmax.  This is what a shard daemon ships to the fleet router: the
/// router merges per-shard lists in seeder order, truncates to
/// max_candidates (filtered/failed entries still consume a slot, exactly as
/// they do in a single-daemon run), and only then finalizes — which is what
/// makes router output byte-identical to the single-daemon answer.
struct RawCandidate {
  GenomePos diagonal = 0;  ///< band representative (seeder identity)
  std::int32_t votes = 0;
  bool reverse = false;
  bool filtered = false;  ///< window too small; no alignment attempted
  bool ok = false;        ///< alignment produced a finite likelihood
  ScoredSite site;        ///< valid only when ok
};

/// The per-read epilogue shared by every scoring path: mapped-at-all
/// cutoff, posterior softmax, pruning, renormalization, and the
/// mapped/site counters.  Empties `sites` for unmapped reads.  Exposed as
/// a free function so the fleet router replays bit-identical float
/// arithmetic on merged shard partials.
void finalize_scored_sites(const PipelineConfig& config, const Read& read,
                           std::vector<ScoredSite>& sites, MapStats& stats);

class ReadMapper {
 public:
  /// The mapper holds references; genome/index/config must outlive it.
  ReadMapper(const Genome& genome, const HashIndex& index,
             const PipelineConfig& config);

  /// Scores every candidate site of each read in `reads` (the one mapping
  /// path).  All candidate alignments of the chunk run through the SIMD
  /// Pair-HMM engine in one sweep (inter-task parallelism; see
  /// phmm::BatchedForward).  Returns one site vector per read, in input
  /// order.  Sites are pruned to those with posterior weight >=
  /// config.min_site_posterior; weights sum to 1 over the returned set.
  /// Empty vector = unmapped read.  When `diagonal_begin`/`diagonal_end`
  /// are set (genome-partition mode), only candidates whose diagonal falls
  /// in [begin, end) are considered.
  /// Results are bit-identical to the scalar double oracle
  /// (score_reads_raw + finalize_scored_sites) — candidate enumeration,
  /// kernel arithmetic, and the posterior softmax all happen in the same
  /// order — and kernel time is recorded in stats.phmm_{forward,backward}_
  /// seconds.  The dispatch level comes from PipelineConfig::simd.
  /// Internally drains the engine's recycled matrix pool (run(consume)),
  /// condensing each task's marginals while its matrices are cache-hot;
  /// see docs/KERNELS.md §5.
  std::vector<std::vector<ScoredSite>> score_reads(
      std::span<const Read> reads, MapperWorkspace& ws, MapStats& stats,
      GenomePos diagonal_begin = 0, GenomePos diagonal_end = 0) const;

  /// Shard-partial scoring: one RawCandidate per surviving seeder candidate
  /// of each read, in seeder order, *without* the finalize epilogue.
  /// Window-filtered candidates are kept as `filtered` placeholders and
  /// failed alignments as `ok == false` ones, because both consume a
  /// max_candidates slot in a single-daemon run and the router must see
  /// them to truncate identically.  Always runs the scalar double kernel
  /// (the oracle path), so partials are independent of the daemon's SIMD
  /// and precision settings.
  std::vector<std::vector<RawCandidate>> score_reads_raw(
      std::span<const Read> reads, MapperWorkspace& ws, MapStats& stats,
      GenomePos diagonal_begin = 0, GenomePos diagonal_end = 0) const;

  /// Adds one site's contributions, scaled by its weight, into `accum`.
  static void accumulate_site(const ScoredSite& site, Accumulator& accum);

  /// Adds every site's contributions, scaled by its weight, into `accum`.
  static void accumulate(const std::vector<ScoredSite>& sites,
                         Accumulator& accum);

  /// Appends every site's weight-scaled contributions to `out` in exactly
  /// the order accumulate() would add() them.  This is the worker-side half
  /// of the split accumulation path: the multiply (order-free) happens
  /// here, the order-sensitive float adds happen when the ordered drain
  /// replays the list (io::apply_accum_deltas), so the result is
  /// bit-identical to serial accumulation.  accumulate()/accumulate_site()
  /// share the same traversal, keeping the two paths in lockstep.
  static void flatten_contributions(const std::vector<ScoredSite>& sites,
                                    std::vector<io::AccumDelta>& out);

  const Seeder& seeder() const { return seeder_; }

  /// Concrete SIMD level the batched path executes at (never kAuto).
  phmm::SimdLevel simd_level() const { return simd_level_; }

  /// Concrete lane precision the batched path executes at (never kAuto).
  /// kSingle engages the fp32 kernels plus the recompute guard below; the
  /// scalar oracle (score_reads_raw) always runs double.
  phmm::Precision phmm_precision() const { return precision_; }

 private:
  /// One candidate alignment problem, ready for the PHMM.  `window` views
  /// genome storage and `pwm` points into a ReadPwms; both stay valid for
  /// the scoring call that produced them.
  struct CandidateWindow {
    GenomePos window_begin = 0;
    std::span<const std::uint8_t> window;
    const Pwm* pwm = nullptr;
    bool reverse = false;
    // Seeder identity, carried so score_reads_raw can ship it to the
    // router's merge; `skip` marks a window-filtered candidate kept only
    // for its max_candidates slot (pwm stays null).
    GenomePos diagonal = 0;
    std::int32_t votes = 0;
    bool skip = false;
  };
  /// Lazily-built per-orientation PWMs for one read.
  struct ReadPwms {
    Pwm fwd, rev;
    bool have_fwd = false, have_rev = false;
  };

  /// Seeds `read` and materializes every surviving candidate window.  The
  /// single source of candidate enumeration: both the scalar and the
  /// batched scoring paths consume its output, which is what keeps them
  /// bit-identical.  Updates reads_total / candidates_evaluated.  With
  /// `keep_filtered`, window-filtered candidates stay in the list as
  /// `skip` placeholders (the shard-partial path needs their slots).
  std::vector<CandidateWindow> gather_candidates(
      const Read& read, ReadPwms& pwms, MapStats& stats,
      GenomePos diagonal_begin, GenomePos diagonal_end,
      bool keep_filtered = false) const;

  /// The scalar double oracle for one staged candidate: align, then
  /// condense the marginals into a ScoredSite (weight unset).  nullopt when
  /// no alignment path has nonzero probability.  Shared by score_reads_raw
  /// and the fp32 recompute guard.
  std::optional<ScoredSite> score_candidate(const CandidateWindow& cw,
                                            AlignmentMatrices& mats) const;

  /// Member shim over finalize_scored_sites (the free function above).
  void finalize_sites(const Read& read, std::vector<ScoredSite>& sites,
                      MapStats& stats) const;

  /// FP32 guard: true when one of `read`'s mapping decisions — the
  /// mapped-at-all cutoff or a site-posterior prune — lands within
  /// config.phmm_fp32_margin of its threshold, close enough that fp32
  /// rounding could flip it.  An empty site list is NOT borderline: no
  /// candidate produced a nonzero-probability path, which is a structural
  /// verdict, not a rounding one (docs/KERNELS.md §8).
  bool fp32_borderline(const Read& read,
                       const std::vector<ScoredSite>& sites) const;

  const Genome& genome_;
  const HashIndex& index_;
  const PipelineConfig& config_;
  Seeder seeder_;
  PairHmm hmm_;
  phmm::SimdLevel simd_level_ = phmm::SimdLevel::kScalar;
  phmm::Precision precision_ = phmm::Precision::kDouble;
};

}  // namespace gnumap
