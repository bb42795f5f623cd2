// Mapping one read: seed -> PHMM forward per candidate -> posterior
// weights and pruning -> forward/backward and marginal condensing for the
// surviving sites -> posterior-weighted marginal accumulation.
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
/// arithmetic on merged shard partials.  It reads nothing but each site's
/// log_likelihood, so it decides as well on likelihood-only headers (no
/// contributions yet) as on full sites.  When `kept_index` is given it gets
/// the input index of each surviving site, in order (empty when the read
/// is unmapped).
void finalize_scored_sites(const PipelineConfig& config, const Read& read,
                           std::vector<ScoredSite>& sites, MapStats& stats,
                           std::vector<std::size_t>* kept_index = nullptr);

class ReadMapper {
 public:
  /// The mapper holds references; genome/index/config must outlive it.
  ReadMapper(const Genome& genome, const HashIndex& index,
             const PipelineConfig& config);

  /// Scores every candidate site of each read in `reads` (the one mapping
  /// path).  Returns one site vector per read, in input order.  Sites are
  /// pruned to those with posterior weight >= config.min_site_posterior;
  /// weights sum to 1 over the returned set.  Empty vector = unmapped
  /// read.  When `diagonal_begin`/`diagonal_end` are set (genome-partition
  /// mode), only candidates whose diagonal falls in [begin, end) are
  /// considered.
  ///
  /// Decide, then condense (docs/KERNELS.md §5).  Every candidate of the
  /// chunk runs through one SIMD forward-only sweep
  /// (phmm::BatchedForward::run_forward); the mapping decisions
  /// (finalize_scored_sites: cutoff, softmax, prune, renormalize) need only
  /// those likelihoods.  Only the surviving sites' tasks are then swept
  /// forward and backward, each drained through condense_marginals while
  /// its matrices are cache-hot.  With fp32 lanes, the recompute guard
  /// runs on the forward-pass scores before the decisions.
  ///
  /// Results are bit-identical to the scalar double oracle
  /// (score_reads_raw + finalize_scored_sites) — candidate enumeration,
  /// kernel arithmetic, and the posterior softmax all happen in the same
  /// order.  stats.dp_cells counts each aligned candidate once;
  /// stats.phmm_{forward,backward}_seconds and ws.batch.timings() cover
  /// both sweeps.  The dispatch level comes from PipelineConfig::simd.
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
