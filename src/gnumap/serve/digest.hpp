// Per-request latency digests for the mapping service: one compact record
// per finished MAP request, kept in a fixed-capacity ring of the most
// recent N so a live daemon can answer "what were the slowest recent
// requests, and where did their time go?" without tracing enabled.
//
// Each digest breaks a request's wall clock into the phases an operator
// actually pages on: admission wait, time blocked on the client's upload,
// the pipeline's decode/map/drain stage seconds, SNP calling, plus the
// PHMM work done (DP cells, GCUPS, fp32 recomputes) and the byte counts
// both ways.  The ring backs three surfaces (docs/OBSERVABILITY.md):
// the admin endpoint's /tracez "slowest recent requests" table, the STATS
// frame's digest_* lines, and one structured request_digest log line
// emitted as each request finishes.
//
// Lock discipline: one short mutex-guarded copy per request (requests run
// for milliseconds to minutes; a push is nanoseconds) — deliberately not
// on any per-read or per-frame path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gnumap::serve {

struct RequestDigest {
  std::uint64_t request_id = 0;
  int conn_id = -1;
  std::uint64_t trace_id = 0;  ///< 0 = request was not traced
  /// 0 = completed; otherwise the WireErrorCode the request died with.
  std::uint16_t error_code = 0;

  double total_seconds = 0.0;           ///< MAP_BEGIN to MAP_DONE/ERROR
  double admission_wait_seconds = 0.0;  ///< inside the admission decision
  double upload_wait_seconds = 0.0;     ///< blocked on READS_CHUNK frames
  double decode_seconds = 0.0;          ///< pipeline decoder stage
  double map_stage_seconds = 0.0;       ///< scoring, summed across workers
  double format_seconds = 0.0;          ///< output rendering, across workers
  double splice_seconds = 0.0;          ///< ordered drain's byte splice
  double call_seconds = 0.0;            ///< SNP calling

  /// The pre-split "ordered drain stage" total, kept for the wire
  /// (MAP_DONE drain_seconds key) and /tracez consumers.
  double drain_seconds() const { return format_seconds + splice_seconds; }

  std::uint64_t upload_bytes = 0;  ///< READS_CHUNK payload bytes received
  std::uint64_t result_bytes = 0;  ///< RESULT_TSV + RESULT_SAM bytes sent
  std::uint64_t reads_total = 0;
  std::uint64_t reads_mapped = 0;
  std::uint64_t calls = 0;
  std::uint64_t phmm_cells = 0;      ///< useful DP cell updates
  double gcups = 0.0;                ///< phmm_cells / kernel seconds / 1e9
  std::uint64_t fp32_recomputed = 0; ///< reads re-scored by the fp64 oracle
};

/// Fixed-capacity ring of the most recent request digests, oldest evicted
/// first.  Thread-safe; snapshots copy out under the mutex.
class DigestRing {
 public:
  explicit DigestRing(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  void push(const RequestDigest& digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(digest);
    } else {
      ring_[next_] = digest;
      next_ = (next_ + 1) % capacity_;
    }
    ++total_;
  }

  /// Every retained digest, oldest first.
  std::vector<RequestDigest> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RequestDigest> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Up to `k` retained digests, slowest (total_seconds) first.
  std::vector<RequestDigest> slowest(std::size_t k) const {
    std::vector<RequestDigest> out = snapshot();
    std::sort(out.begin(), out.end(),
              [](const RequestDigest& a, const RequestDigest& b) {
                return a.total_seconds > b.total_seconds;
              });
    if (out.size() > k) out.resize(k);
    return out;
  }

  /// Digests ever pushed (retained + evicted).
  std::uint64_t total_recorded() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestDigest> ring_;
  std::size_t next_ = 0;       ///< eviction cursor once the ring is full
  std::uint64_t total_ = 0;
};

}  // namespace gnumap::serve
