// The paper's two distributed-memory strategies (Section VI, Step 1), run
// over the mpsim message-passing substrate:
//
//  * kReadPartition ("shared memory mode" in Figure 4): every rank holds the
//    full genome, hash table, and accumulation buffer, and maps a 1/p shard
//    of the reads.  "At the end of the run, each of the machines will
//    communicate the state of their genome" — a reduction of the
//    accumulation buffers — "and SNPs will be called accordingly."
//
//  * kGenomePartition ("spread memory mode"): the genome is split into equal
//    segments with an overlap margin; every rank sees *all* reads (broadcast
//    from rank 0, counted as communication) but only seeds/aligns candidates
//    whose diagonal it owns.  Per-read mapping posteriors need the total
//    alignment likelihood across every rank's candidate sites, obtained with
//    a batched allreduce — the cross-machine score normalization the paper
//    describes.  Each rank then calls SNPs on its own segment and the calls
//    are gathered at rank 0.
//
// Per-rank compute is each rank thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// which time spent waiting for a core does not advance, so ranks may
// outnumber the host's cores; communication volumes are exact.  The cost
// model turns (compute, comm) into simulated cluster wall-clock for the
// Figure 4/5 reproductions.
#pragma once

#include <cstdint>
#include <vector>

#include "gnumap/core/config.hpp"
#include "gnumap/genome/genome.hpp"
#include "gnumap/index/hash_index.hpp"
#include "gnumap/io/read.hpp"
#include "gnumap/io/read_stream.hpp"
#include "gnumap/io/snp_writer.hpp"
#include "gnumap/mpsim/cost_model.hpp"

namespace gnumap {

enum class DistMode { kReadPartition, kGenomePartition };

/// What recovering from injected faults cost, summarized per run.
struct RecoverySummary {
  int attempts = 1;               ///< total world executions (>= 1)
  std::vector<int> failed_ranks;  ///< first failed rank of each aborted attempt
  std::uint64_t resent_messages = 0;  ///< traffic of aborted attempts
  std::uint64_t resent_bytes = 0;
  double redone_compute_seconds = 0.0;  ///< compute burned in aborted attempts
};

struct DistResult {
  std::vector<SnpCall> calls;
  /// The complete TSV document (header + rows), assembled from rank-local
  /// formatting: in genome-partition mode every rank renders its own
  /// segment's rows with the locale-independent append API and rank 0
  /// splices the preformatted bodies in rank order (segments are
  /// position-ordered, so no re-sort is needed); in read-partition mode
  /// only rank 0 holds final calls and renders them itself.  Byte-identical
  /// to write_snps_tsv(calls) — and to the serial pipeline's output.
  std::string tsv;
  MapStats stats;               ///< aggregated over ranks
  std::vector<RankCost> costs;  ///< per-rank costs of the final attempt
  double wall_seconds = 0.0;    ///< host wall time (diagnostic only)
  /// Per-rank accumulator memory: equal on every rank in read-partition
  /// mode, segment-sized in genome-partition mode.
  std::uint64_t max_rank_accum_bytes = 0;
  std::uint64_t total_accum_bytes = 0;
  std::uint64_t max_rank_index_bytes = 0;
  /// Every attempt's per-rank costs (aborted attempts included), for
  /// simulated_makespan_with_recovery; attempt_costs.back() == costs.
  std::vector<std::vector<RankCost>> attempt_costs;
  RecoverySummary recovery;
};

struct DistOptions {
  int ranks = 4;
  DistMode mode = DistMode::kReadPartition;
  /// Batch size for the genome-partition score-normalization allreduce.
  std::uint32_t batch_size = 512;

  // --- Fault tolerance (no effect when `faults` is empty) ---------------
  /// Injected faults for this run; an empty plan reproduces the fault-free
  /// substrate bit-for-bit (no timeouts, no checkpoints, identical comm
  /// counts).
  FaultPlan faults;
  /// Blocking-wait bound while injecting faults; 0 picks a generous
  /// default.  Needed so dropped messages surface as CommError instead of
  /// hanging a collective.
  double recv_timeout_seconds = 0.0;
  /// Checkpoint every N reads of a rank's shard (read-partition) or every
  /// N broadcast batches (genome-partition); 0 picks a default.
  std::uint64_t checkpoint_interval = 0;
  /// World executions allowed before the fault is considered permanent and
  /// the first failure is rethrown.  Each retry restarts the failed rank
  /// from its last checkpoint; the survivors rewind to theirs and the
  /// attempt replays.
  int max_attempts = 5;

  /// Genome-partition mode sizes its overlap margin from the longest read.
  /// The vector overload measures this directly; the streaming overload
  /// needs either this hint or a resettable stream it can prescan.  0 =
  /// prescan.
  std::uint32_t max_read_len = 0;
};

/// Runs the pipeline distributed.  Reads are pulled from `reads` batch by
/// batch instead of being materialized up front, so no rank ever holds the
/// whole read set.
///
///  * kReadPartition: rank 0 decodes the stream and deals it round-robin,
///    *shipping* each slice to its owning rank (counted as communication),
///    throttled by a per-rank ack window of config.queue_depth slices so
///    in-flight read memory stays O(queue_depth x batch) per rank.  A sized
///    stream (size_hint) is cut into equal slices so every rank maps the
///    same number of reads; an unsized one is dealt by whole batches.
///  * kGenomePartition: rank 0 re-batches the stream into
///    options.batch_size broadcast payloads (the margin comes from
///    options.max_read_len or a prescan).
///
/// `shared_index` may be passed for read-partition mode to avoid
/// rebuilding one identical index per rank on one host (a real cluster
/// would build it once per machine); pass nullptr to have each rank build
/// its own (timed as compute).  In genome-partition mode each rank always
/// builds its segment index.
///
/// Checkpoints record the stream cursor (reads completed); recovery resets
/// the stream and replays, so fault tolerance requires ReadStream::reset()
/// support.  The stream must be positioned at its start.
DistResult run_distributed(const Genome& genome, ReadStream& reads,
                           const PipelineConfig& config,
                           const DistOptions& options,
                           const HashIndex* shared_index = nullptr);

/// In-memory form: wraps `reads` in a VectorReadStream of
/// config.stream_batch reads and measures max_read_len when unset.
DistResult run_distributed(const Genome& genome,
                           const std::vector<Read>& reads,
                           const PipelineConfig& config,
                           const DistOptions& options,
                           const HashIndex* shared_index = nullptr);

}  // namespace gnumap
