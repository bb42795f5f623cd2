#include "gnumap/core/read_mapper.hpp"

#include <algorithm>
#include <cmath>

#include "gnumap/obs/metrics.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/phmm/marginal.hpp"

namespace gnumap {

ReadMapper::ReadMapper(const Genome& genome, const HashIndex& index,
                       const PipelineConfig& config)
    : genome_(genome),
      index_(index),
      config_(config),
      seeder_(index, config.seeder),
      hmm_(config.phmm, BoundaryMode::kSemiGlobal),
      simd_level_(phmm::resolve_simd_level(config.simd)),
      precision_(phmm::resolve_precision(config.phmm_precision)) {}

std::vector<ReadMapper::CandidateWindow> ReadMapper::gather_candidates(
    const Read& read, ReadPwms& pwms, MapStats& stats,
    GenomePos diagonal_begin, GenomePos diagonal_end,
    bool keep_filtered) const {
  ++stats.reads_total;
  std::vector<CandidateWindow> out;
  if (read.length() < static_cast<std::size_t>(index_.k())) return out;

  const bool restrict_diagonals = diagonal_end > diagonal_begin;
  const auto candidates = seeder_.candidates(read);
  if (candidates.empty()) return out;

  const auto pad = static_cast<GenomePos>(config_.window_pad);
  const auto read_len = static_cast<GenomePos>(read.length());

  for (const Candidate& candidate : candidates) {
    if (restrict_diagonals && (candidate.diagonal < diagonal_begin ||
                               candidate.diagonal >= diagonal_end)) {
      continue;
    }
    CandidateWindow cw;
    cw.reverse = candidate.reverse;
    cw.diagonal = candidate.diagonal;
    cw.votes = candidate.votes;
    const GenomePos win_begin =
        candidate.diagonal >= pad ? candidate.diagonal - pad : 0;
    const GenomePos win_end = candidate.diagonal + read_len + pad;
    const auto window = genome_.window(win_begin, win_end);
    if (window.size() < read.length() / 2) {
      if (keep_filtered) {
        cw.skip = true;
        out.push_back(std::move(cw));
      }
      continue;
    }

    ++stats.candidates_evaluated;
    const Pwm* pwm;
    if (candidate.reverse) {
      if (!pwms.have_rev) {
        pwms.rev = Pwm::from_read_reverse(read);
        pwms.have_rev = true;
      }
      pwm = &pwms.rev;
    } else {
      if (!pwms.have_fwd) {
        pwms.fwd = Pwm::from_read(read);
        pwms.have_fwd = true;
      }
      pwm = &pwms.fwd;
    }
    cw.window_begin = win_begin;
    cw.window = window;
    cw.pwm = pwm;
    out.push_back(std::move(cw));
  }
  return out;
}

void finalize_scored_sites(const PipelineConfig& config, const Read& read,
                           std::vector<ScoredSite>& sites, MapStats& stats,
                           std::vector<std::size_t>* kept_index) {
  if (kept_index != nullptr) kept_index->clear();
  if (sites.empty()) return;

  // Mapped-at-all test: best per-base log-likelihood above the cutoff.
  double best_ll = sites.front().log_likelihood;
  for (const auto& site : sites) best_ll = std::max(best_ll, site.log_likelihood);
  if (best_ll < config.min_loglik_per_base *
                    static_cast<double>(read.length())) {
    sites.clear();
    return;
  }

  // Posterior mapping weights: softmax of the site log-likelihoods.
  double norm = 0.0;
  for (const auto& site : sites) {
    norm += std::exp(site.log_likelihood - best_ll);
  }
  for (auto& site : sites) {
    site.weight = std::exp(site.log_likelihood - best_ll) / norm;
  }
  // Prune negligible sites, then renormalize the survivors.
  std::size_t out = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].weight < config.min_site_posterior) continue;
    if (kept_index != nullptr) kept_index->push_back(i);
    if (out != i) sites[out] = std::move(sites[i]);
    ++out;
  }
  sites.resize(out);
  double kept = 0.0;
  for (const auto& site : sites) kept += site.weight;
  if (kept > 0.0) {
    for (auto& site : sites) site.weight /= kept;
  }
  if (!sites.empty()) ++stats.reads_mapped;
  stats.sites_accumulated += sites.size();
}

std::optional<ScoredSite> ReadMapper::score_candidate(
    const CandidateWindow& cw, AlignmentMatrices& mats) const {
  if (!hmm_.align(*cw.pwm, cw.window, mats)) return std::nullopt;
  ScoredSite site;
  site.window_begin = cw.window_begin;
  site.log_likelihood = mats.log_likelihood;
  site.reverse = cw.reverse;
  site.contributions =
      condense_marginals(hmm_, *cw.pwm, mats, config_.marginal);
  return site;
}

std::vector<std::vector<ScoredSite>> ReadMapper::score_reads(
    std::span<const Read> reads, MapperWorkspace& ws, MapStats& stats,
    GenomePos diagonal_begin, GenomePos diagonal_end) const {
  std::vector<std::vector<ScoredSite>> scored(reads.size());
  if (reads.empty()) return scored;

  // Phase 1: seed every read and queue all candidate alignments.  PWM and
  // candidate storage is pre-sized so the pointers the batch borrows stay
  // put until the last sweep returns.
  ws.batch.configure(config_.phmm, BoundaryMode::kSemiGlobal,
                     phmm::EngineOptions{.simd = simd_level_,
                                         .precision = precision_});
  std::vector<ReadPwms> pwms(reads.size());
  std::vector<std::vector<CandidateWindow>> candidates(reads.size());
  struct Pending {
    std::size_t read;
    std::size_t cand;
  };
  std::vector<Pending> pending;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    candidates[r] = gather_candidates(reads[r], pwms[r], stats,
                                      diagonal_begin, diagonal_end);
    for (std::size_t c = 0; c < candidates[r].size(); ++c) {
      ws.batch.add(*candidates[r][c].pwm, candidates[r][c].window);
      pending.push_back(Pending{r, c});
    }
  }

  // Phase 2: one vectorized forward sweep over the whole chunk yields every
  // candidate's likelihood, which is all a mapping decision reads.  Tasks
  // were added read-major, so walking them in id order builds each read's
  // likelihood-only site headers in exactly the order the scalar path
  // produces its sites; site_task remembers which task each header is.
  const double batch_start_us = obs::trace_now_us();
  ws.batch.run_forward();
  std::vector<std::vector<std::size_t>> site_task(reads.size());
  for (std::size_t task = 0; task < pending.size(); ++task) {
    const phmm::BatchOutcome& outcome = ws.batch.outcome(task);
    if (!outcome.ok) continue;
    const auto [r, c] = pending[task];
    const CandidateWindow& cw = candidates[r][c];
    stats.dp_cells += (reads[r].length() + 1) * (cw.window.size() + 1);
    ScoredSite site;
    site.window_begin = cw.window_begin;
    site.log_likelihood = outcome.log_likelihood;
    site.reverse = cw.reverse;
    scored[r].push_back(std::move(site));
    site_task[r].push_back(task);
  }

  // FP32 guard: before the decisions below are taken on single-precision
  // scores, re-score any read whose decisions sit within the configured
  // margin of a threshold with the scalar double oracle (sites and
  // contributions both) — its candidate windows are still staged, so this
  // reuses the exact enumeration the batch saw.  Off-margin decisions are
  // unaffected by fp32 rounding by construction, so the calls the pipeline
  // emits match the fp64 path read for read (docs/KERNELS.md §8).  A
  // re-scored read's site_task is emptied: it needs no survivor sweep.
  if (precision_ == phmm::Precision::kSingle) {
    static obs::Counter& recomputed = obs::registry().counter(
        "gnumap_phmm_fp32_recomputed_total",
        "Reads re-scored with the scalar double oracle because an fp32 "
        "mapping decision was within the recompute margin");
    for (std::size_t r = 0; r < reads.size(); ++r) {
      if (!fp32_borderline(reads[r], scored[r])) continue;
      ++stats.fp32_recomputed_reads;
      recomputed.inc();
      scored[r].clear();
      site_task[r].clear();
      for (const CandidateWindow& cw : candidates[r]) {
        if (auto site = score_candidate(cw, ws.mats)) {
          scored[r].push_back(std::move(*site));
        }
      }
    }
  }

  // Decide: the shared epilogue prunes each read's headers; only the tasks
  // behind the surviving sites still need their marginals.  Survivors are
  // collected in ascending task order, and their sites no longer move.
  std::vector<std::size_t> survivors;
  std::vector<ScoredSite*> survivor_site(pending.size(), nullptr);
  std::vector<std::size_t> kept;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    finalize_scored_sites(config_, reads[r], scored[r], stats, &kept);
    if (site_task[r].empty()) continue;
    for (std::size_t s = 0; s < kept.size(); ++s) {
      const std::size_t task = site_task[r][kept[s]];
      survivors.push_back(task);
      survivor_site[task] = &scored[r][s];
    }
  }

  // Phase 3: forward+backward over the survivors only, draining each SIMD
  // pack through marginal condensing while its matrices are cache-hot (the
  // engine recycles a width-sized matrix pool).  Every lane is bit-identical
  // whatever pack it lands in, so the contributions match a sweep over the
  // whole chunk.  The engine's timings now cover both sweeps.
  ws.batch.run(
      [&](std::size_t task) {
        const CandidateWindow& cw =
            candidates[pending[task].read][pending[task].cand];
        survivor_site[task]->contributions = condense_marginals(
            hmm_, *cw.pwm, ws.batch.matrices(task), config_.marginal);
      },
      survivors);
  obs::record_complete("phmm_batch", "phmm", batch_start_us,
                       obs::trace_now_us() - batch_start_us, "tasks",
                       static_cast<double>(pending.size()), "survivors",
                       static_cast<double>(survivors.size()));
  stats.phmm_forward_seconds += ws.batch.timings().forward_seconds;
  stats.phmm_backward_seconds += ws.batch.timings().backward_seconds;
  // Per-chunk kernel latency; resolved once so per-chunk updates are a pair
  // of relaxed atomics.
  static obs::Histogram& batch_histogram = obs::registry().histogram(
      "gnumap_phmm_batch_seconds", obs::default_time_buckets(),
      "Kernel time per score_reads chunk: the all-candidate forward sweep "
      "plus the survivors' forward+backward sweep");
  batch_histogram.observe(ws.batch.timings().forward_seconds +
                          ws.batch.timings().backward_seconds);
  return scored;
}

std::vector<std::vector<RawCandidate>> ReadMapper::score_reads_raw(
    std::span<const Read> reads, MapperWorkspace& ws, MapStats& stats,
    GenomePos diagonal_begin, GenomePos diagonal_end) const {
  std::vector<std::vector<RawCandidate>> out(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    ReadPwms pwms;
    const auto candidates =
        gather_candidates(reads[r], pwms, stats, diagonal_begin, diagonal_end,
                          /*keep_filtered=*/true);
    out[r].reserve(candidates.size());
    for (const CandidateWindow& cw : candidates) {
      RawCandidate raw;
      raw.diagonal = cw.diagonal;
      raw.votes = cw.votes;
      raw.reverse = cw.reverse;
      raw.filtered = cw.skip;
      if (!cw.skip) {
        if (auto site = score_candidate(cw, ws.mats)) {
          stats.dp_cells += (reads[r].length() + 1) * (cw.window.size() + 1);
          raw.ok = true;
          raw.site = std::move(*site);
        }
      }
      out[r].push_back(std::move(raw));
    }
  }
  return out;
}

bool ReadMapper::fp32_borderline(const Read& read,
                                 const std::vector<ScoredSite>& sites) const {
  // No surviving alignment: ok-ness is a structural zero (no path has
  // nonzero probability), not a rounding artifact — never borderline.
  if (sites.empty()) return false;
  const double margin = config_.phmm_fp32_margin;
  double best = sites.front().log_likelihood;
  for (const auto& site : sites) best = std::max(best, site.log_likelihood);
  // Decision 1: the mapped-at-all cutoff in finalize_scored_sites.
  const double cutoff =
      config_.min_loglik_per_base * static_cast<double>(read.length());
  if (std::abs(best - cutoff) <= margin) return true;
  if (best < cutoff) return false;  // comfortably unmapped
  // Decision 2: the per-site posterior prune.  The pre-prune weight is
  // exp(ll - best) / norm; compare in log space so the margin is in the
  // same log-likelihood units as the scores.
  double norm = 0.0;
  for (const auto& site : sites) norm += std::exp(site.log_likelihood - best);
  const double log_norm = std::log(norm);
  const double log_min = std::log(config_.min_site_posterior);
  for (const auto& site : sites) {
    const double log_w = (site.log_likelihood - best) - log_norm;
    if (std::abs(log_w - log_min) <= margin) return true;
  }
  return false;
}

namespace {

/// The one traversal of a site's weight-scaled contributions, shared by the
/// direct accumulate path and the worker-side flattening so the two can
/// never drift: `emit(pos, delta)` fires in exactly serial add() order.
template <typename Emit>
void for_each_contribution(const ScoredSite& site, Emit&& emit) {
  const auto weight = static_cast<float>(site.weight);
  const auto& tracks = site.contributions.tracks;
  for (std::size_t j = 0; j < tracks.size(); ++j) {
    TrackVector delta;
    bool any = false;
    for (int k = 0; k < kNumTracks; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      delta[ks] = tracks[j][ks] * weight;
      any |= delta[ks] > 0.0f;
    }
    if (any) emit(site.window_begin + j, delta);
  }
}

}  // namespace

void ReadMapper::accumulate_site(const ScoredSite& site, Accumulator& accum) {
  for_each_contribution(site, [&](GenomePos pos, const TrackVector& delta) {
    accum.add(pos, delta);
  });
}

void ReadMapper::accumulate(const std::vector<ScoredSite>& sites,
                            Accumulator& accum) {
  for (const auto& site : sites) accumulate_site(site, accum);
}

void ReadMapper::flatten_contributions(const std::vector<ScoredSite>& sites,
                                       std::vector<io::AccumDelta>& out) {
  for (const auto& site : sites) {
    for_each_contribution(site, [&](GenomePos pos, const TrackVector& delta) {
      out.push_back(io::AccumDelta{pos, delta});
    });
  }
}

}  // namespace gnumap
