#include "gnumap/core/dist_modes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "gnumap/core/obs_bridge.hpp"
#include "gnumap/core/read_mapper.hpp"
#include "gnumap/core/snp_caller.hpp"
#include "gnumap/genome/partition.hpp"
#include "gnumap/io/read_codec.hpp"
#include "gnumap/mpsim/communicator.hpp"
#include "gnumap/obs/trace.hpp"
#include "gnumap/phmm/batched.hpp"
#include "gnumap/util/error.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap {

namespace {

// ---------------------------------------------------------------------------
// Binary (de)serialization helpers for broadcast/gather payloads.

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

struct Cursor {
  const std::vector<std::uint8_t>& data;
  std::size_t at = 0;

  template <typename T>
  T take() {
    require(at + sizeof(T) <= data.size(), "deserialize: truncated payload");
    T v;
    std::memcpy(&v, data.data() + at, sizeof(T));
    at += sizeof(T);
    return v;
  }
  std::string take_string(std::size_t n) {
    require(at + n <= data.size(), "deserialize: truncated payload");
    std::string s(reinterpret_cast<const char*>(data.data() + at), n);
    at += n;
    return s;
  }
};

/// A batch of reads shipped between ranks: u64 stream offset of its first
/// read, then the reads in the io codec's form (io/read_codec.hpp) — the
/// same bytes the fleet's SHARD_READS frames carry.  The offset lets the
/// receiver detect a lost or reordered batch.
struct ReadPiece {
  std::uint64_t offset = 0;
  std::vector<Read> reads;
};

std::vector<std::uint8_t> pack_reads(std::uint64_t offset,
                                     std::span<const Read> reads) {
  const std::string bytes = io::encode_reads(reads);
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(offset) + bytes.size());
  put_u64(out, offset);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

ReadPiece unpack_reads(const std::vector<std::uint8_t>& payload) {
  Cursor cursor{payload};
  ReadPiece piece;
  piece.offset = cursor.take<std::uint64_t>();
  piece.reads = io::decode_reads(
      std::string_view(reinterpret_cast<const char*>(payload.data()),
                       payload.size())
          .substr(cursor.at));
  return piece;
}

/// Throws the retryable CommError when a received batch does not start
/// where the receiver's cursor stands: an injected drop or delay lost or
/// reordered a batch, and mapping on would skew the checkpoint cursor.
void expect_offset(const ReadPiece& piece, std::uint64_t expected, int rank) {
  if (piece.offset != expected) {
    throw CommError("rank " + std::to_string(rank) +
                    ": read batch at offset " + std::to_string(piece.offset) +
                    ", expected " + std::to_string(expected) +
                    " (a batch was lost or reordered)");
  }
}

std::vector<std::uint8_t> serialize_calls(const std::vector<SnpCall>& calls) {
  std::vector<std::uint8_t> out;
  put_u64(out, calls.size());
  for (const auto& call : calls) {
    put_u32(out, static_cast<std::uint32_t>(call.contig.size()));
    out.insert(out.end(), call.contig.begin(), call.contig.end());
    put_u64(out, call.position);
    out.push_back(call.ref);
    out.push_back(call.allele1);
    out.push_back(call.allele2);
    put_f64(out, call.coverage);
    put_f64(out, call.lrt_stat);
    put_f64(out, call.p_value);
  }
  return out;
}

std::vector<SnpCall> take_calls(Cursor& cursor) {
  const std::uint64_t count = cursor.take<std::uint64_t>();
  std::vector<SnpCall> calls;
  calls.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SnpCall call;
    const auto len = cursor.take<std::uint32_t>();
    call.contig = cursor.take_string(len);
    call.position = cursor.take<std::uint64_t>();
    call.ref = cursor.take<std::uint8_t>();
    call.allele1 = cursor.take<std::uint8_t>();
    call.allele2 = cursor.take<std::uint8_t>();
    call.coverage = cursor.take<double>();
    call.lrt_stat = cursor.take<double>();
    call.p_value = cursor.take<double>();
    calls.push_back(std::move(call));
  }
  return calls;
}

/// Gather payload for the genome-partition root splice: the rank's TSV
/// rows, preformatted locally with the locale-independent append API
/// (rank-local formatting — the root never renders another rank's calls),
/// followed by the structured calls for DistResult::calls.
std::vector<std::uint8_t> serialize_rank_output(
    const std::vector<SnpCall>& calls) {
  std::string tsv;
  append_snps_tsv_body(tsv, calls);
  const auto call_bytes = serialize_calls(calls);
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(std::uint64_t) + tsv.size() + call_bytes.size());
  put_u64(out, tsv.size());
  out.insert(out.end(), tsv.begin(), tsv.end());
  out.insert(out.end(), call_bytes.begin(), call_bytes.end());
  return out;
}

/// Root-side splice of gathered rank outputs, in rank order.  Genome
/// segments are assigned to ranks in position order and call_snps scans a
/// segment in position order, so rank-order concatenation IS global genome
/// order — the same order the serial caller emits.  (The former sort by
/// (contig name, position) could disagree with genome order for contig
/// names that don't sort lexicographically; splicing cannot.)
void splice_rank_outputs(const std::vector<std::vector<std::uint8_t>>& gathered,
                         std::string& tsv, std::vector<SnpCall>& calls) {
  tsv.clear();
  append_snps_tsv_header(tsv);
  calls.clear();
  for (const auto& payload : gathered) {
    Cursor cursor{payload};
    const auto tsv_len = cursor.take<std::uint64_t>();
    tsv += cursor.take_string(static_cast<std::size_t>(tsv_len));
    auto rank_calls = take_calls(cursor);
    calls.insert(calls.end(), std::make_move_iterator(rank_calls.begin()),
                 std::make_move_iterator(rank_calls.end()));
  }
}

/// Runs `fn` as one of this rank's compute phases: the rank's CPU-time
/// clock brackets only this work (mpsim/communicator.hpp, compute_clock).
template <typename Fn>
void compute_turn(Stopwatch& clock, Fn&& fn) {
  clock.start();
  { GNUMAP_TRACE_SPAN("compute_turn", "compute"); fn(); }
  clock.stop();
}

// ---------------------------------------------------------------------------
// Checkpointing.
//
// Each rank periodically serializes its recoverable state — accumulator
// bytes, shard/batch cursor, mapping statistics — to an in-process store
// standing in for the stable storage a real cluster would use.  After an
// aborted attempt the next attempt restores from these snapshots instead of
// starting over.  Accumulator (de)serialization round-trips floats exactly,
// so a restarted run replays into bit-identical state.

struct Checkpoint {
  /// Reads completed: within the rank's shard (read-partition) or the
  /// global read offset of the last finished batch (genome-partition).
  std::uint64_t progress = 0;
  std::vector<std::uint8_t> accum;
  std::vector<std::uint8_t> left_halo;   // genome-partition only
  std::vector<std::uint8_t> right_halo;  // genome-partition only
  MapStats stats;
  std::uint64_t mapped_reads = 0;  // genome-partition, rank 0 only
};

class CheckpointStore {
 public:
  explicit CheckpointStore(int ranks)
      : per_rank_(static_cast<std::size_t>(ranks)) {}

  /// `keep_history` retains earlier snapshots so the genome-partition mode
  /// can rewind every rank to a common batch boundary; the read-partition
  /// mode only ever needs the latest snapshot per rank.
  void save(int rank, Checkpoint cp, bool keep_history) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& history = per_rank_[static_cast<std::size_t>(rank)];
    if (!keep_history) history.clear();
    history.push_back(std::move(cp));
  }

  std::optional<Checkpoint> latest(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& history = per_rank_[static_cast<std::size_t>(rank)];
    if (history.empty()) return std::nullopt;
    return history.back();
  }

  std::optional<Checkpoint> at(int rank, std::uint64_t progress) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& history = per_rank_[static_cast<std::size_t>(rank)];
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      if (it->progress == progress) return *it;
    }
    return std::nullopt;
  }

  /// Highest progress value every rank has a snapshot for.  Ranks take
  /// snapshots at identical deterministic boundaries, so the minimum of the
  /// per-rank maxima is reachable by every rank (0 = start over).
  std::uint64_t common_progress() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t common = UINT64_MAX;
    for (const auto& history : per_rank_) {
      common = std::min(common, history.empty() ? 0 : history.back().progress);
    }
    return common == UINT64_MAX ? 0 : common;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<Checkpoint>> per_rank_;
};

// ---------------------------------------------------------------------------
// Rank bodies.  Rank 0 owns the read stream and never materializes it:
// read-partition deals batches point-to-point under an ack window (a
// rank's shard is the reads dealt to it, in delivery order),
// genome-partition re-batches into fixed-size broadcast payloads.  Per-rank
// compute seconds bracket only that rank's work.

/// Read-partition delivery protocol: rank 0 -> owner, one message per
/// shipped piece, its offset counted within the owner's shard; the owner
/// acks each piece after mapping it so rank 0 keeps at most `queue_depth`
/// pieces in flight per rank.
constexpr int kStreamBatchTag = 110;  // packed reads; empty = end of shard
constexpr int kStreamAckTag = 111;    // empty payload back per mapped piece

/// Everything one attempt's rank bodies need, fixed for that attempt.
/// Only rank 0 may touch `reads`.
struct StreamAttemptContext {
  const Genome& genome;
  ReadStream& reads;
  const PipelineConfig& config;
  const DistOptions& options;
  const HashIndex* shared_index;
  CheckpointStore& store;
  bool fault_mode = false;
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t resume_reads = 0;  ///< genome-partition common resume offset
  std::uint32_t max_read_len = 0;  ///< genome-partition margin input
  DistResult& result;
  std::mutex& result_mutex;
};

void run_read_partition_rank_stream(Communicator& comm,
                                    const StreamAttemptContext& ctx) {
  const int rank = comm.rank();
  const int p = comm.size();
  const PipelineConfig& config = ctx.config;
  Stopwatch& clock = comm.compute_clock();

  std::optional<HashIndex> own_index;
  const HashIndex* index = ctx.shared_index;
  if (index == nullptr) {
    compute_turn(clock, [&] {
      own_index.emplace(ctx.genome, config.index);
    });
    index = &*own_index;
  }
  const ReadMapper mapper(ctx.genome, *index, config);
  auto accum = make_accumulator(config.accum_kind, 0, ctx.genome.padded_size(),
                                config.centdisc_quantize);

  MapStats stats;
  std::uint64_t done = 0;  // reads of this rank's (virtual) shard completed
  auto snapshot = [&] {
    obs::TraceSpan cp_span("checkpoint_save", "ckpt", "progress",
                           static_cast<double>(done));
    ctx.store.save(rank, Checkpoint{done, accum->to_bytes(), {}, {}, stats, 0},
                   /*keep_history=*/false);
  };
  if (ctx.fault_mode) {
    if (const auto cp = ctx.store.latest(rank)) {
      GNUMAP_TRACE_SPAN("checkpoint_restore", "ckpt");
      accum->from_bytes(cp->accum);
      stats = cp->stats;
      done = cp->progress;
    }
  }

  MapperWorkspace ws;
  // Maps one delivered piece of this rank's shard, in delivery order.
  // Scoring is chunked for the SIMD engine (bit-identical at any chunking,
  // see phmm/batched.hpp) but accumulated — and stepped past the
  // fault-injection clock — one read at a time, so checkpoints and crash
  // points land on a per-read grid.  A chunk never straddles a checkpoint,
  // so a snapshot's stats count exactly the reads its accumulator holds.
  const bool checkpointing = ctx.fault_mode && ctx.checkpoint_interval > 0;
  auto process_reads = [&](const std::vector<Read>& piece) {
    compute_turn(clock, [&] {
      constexpr std::size_t kScoreBatch = 32;
      std::size_t r = 0;
      while (r < piece.size()) {
        std::size_t len = std::min<std::size_t>(kScoreBatch, piece.size() - r);
        if (checkpointing) {
          len = static_cast<std::size_t>(std::min<std::uint64_t>(
              len, ctx.checkpoint_interval - done % ctx.checkpoint_interval));
        }
        const auto scored = mapper.score_reads(
            std::span<const Read>(piece.data() + r, len), ws, stats);
        for (const auto& sites : scored) {
          ReadMapper::accumulate(sites, *accum);
          ++done;
          comm.step();
          if (checkpointing && done % ctx.checkpoint_interval == 0) {
            snapshot();
          }
        }
        r += len;
      }
    });
  };

  if (rank == 0) {
    // The pump: decode the stream and ship every piece to its owner (its
    // own pieces are mapped inline).  After a restart, each rank's restored
    // prefix is dropped at the pump — delivery is deterministic, so the
    // replayed assignment matches the checkpointed one.
    const auto size_hint = ctx.reads.size_hint();
    const std::uint64_t window =
        std::max<std::uint32_t>(1, config.queue_depth);
    std::vector<std::uint64_t> skip(static_cast<std::size_t>(p), 0);
    std::vector<std::uint64_t> outstanding(static_cast<std::size_t>(p), 0);
    if (ctx.fault_mode) {
      for (int r = 0; r < p; ++r) {
        if (const auto cp = ctx.store.latest(r)) {
          skip[static_cast<std::size_t>(r)] = cp->progress;
        }
      }
    }

    // Shard offset just past the last read assigned to each rank, restored
    // prefix included: where that rank's cursor stands once it has mapped
    // everything shipped so far.
    std::vector<std::uint64_t> assigned(static_cast<std::size_t>(p), 0);
    // Assigns reads [first, last) — the next ones of `dest`'s shard — and
    // ships all but the restored prefix.
    auto assign = [&](int dest, std::vector<Read>::iterator first,
                      std::vector<Read>::iterator last) {
      const auto d = static_cast<std::size_t>(dest);
      const std::uint64_t off = assigned[d];
      const auto n = static_cast<std::uint64_t>(last - first);
      assigned[d] += n;
      const std::uint64_t drop = skip[d] > off ? std::min(n, skip[d] - off) : 0;
      if (drop == n) return;
      const std::vector<Read> piece(
          std::make_move_iterator(first + static_cast<std::ptrdiff_t>(drop)),
          std::make_move_iterator(last));
      if (dest == 0) {
        process_reads(piece);
        return;
      }
      auto& pending = outstanding[d];
      while (pending >= window) {
        comm.recv(dest, kStreamAckTag);
        --pending;
      }
      comm.send(dest, kStreamBatchTag, pack_reads(off + drop, piece));
      ++pending;
    };

    // Deal the stream round-robin in slices of about one batch, rank 0
    // last in each round so it ships before it maps and every rank works
    // from the start.  A sized stream is cut into rounds x p slices of
    // equal size (within one read), so ranks map equal read counts give or
    // take one read per round; an unsized stream deals whole batches.
    const std::uint64_t per_round =
        static_cast<std::uint64_t>(p) *
        std::max<std::uint64_t>(1, ctx.reads.batch_size());
    const std::uint64_t slices =
        size_hint ? static_cast<std::uint64_t>(p) *
                        std::max<std::uint64_t>(
                            1, (*size_hint + per_round - 1) / per_round)
                  : 0;
    auto slice_end = [&](std::uint64_t k) {
      return *size_hint * (k + 1) / slices;
    };
    std::uint64_t slice = 0;
    ReadBatch batch;
    while (ctx.reads.next(batch)) {
      auto it = batch.reads.begin();
      while (it != batch.reads.end()) {
        auto len = static_cast<std::uint64_t>(batch.reads.end() - it);
        if (size_hint) {
          const std::uint64_t g =
              batch.first_index +
              static_cast<std::uint64_t>(it - batch.reads.begin());
          while (slice + 1 < slices && g >= slice_end(slice)) ++slice;
          if (g < slice_end(slice)) len = std::min(len, slice_end(slice) - g);
        }
        const auto dest =
            static_cast<int>((slice + 1) % static_cast<std::uint64_t>(p));
        assign(dest, it, it + static_cast<std::ptrdiff_t>(len));
        it += static_cast<std::ptrdiff_t>(len);
      }
      if (!size_hint) ++slice;
    }

    // End-of-stream: an empty piece per rank at its shard's end offset,
    // then drain the remaining acks so the attempt's message ledger
    // balances.
    for (int r = 1; r < p; ++r) {
      comm.send(r, kStreamBatchTag,
                pack_reads(assigned[static_cast<std::size_t>(r)], {}));
      auto& pending = outstanding[static_cast<std::size_t>(r)];
      while (pending > 0) {
        comm.recv(r, kStreamAckTag);
        --pending;
      }
    }
  } else {
    for (;;) {
      const ReadPiece piece = unpack_reads(comm.recv(0, kStreamBatchTag));
      expect_offset(piece, done, rank);
      if (piece.reads.empty()) break;
      process_reads(piece.reads);
      comm.send(0, kStreamAckTag, {});
    }
  }

  // Final shard snapshot: a crash during the reduction restarts without
  // redoing any mapping.
  if (ctx.fault_mode) snapshot();

  // Reduce the genome state at rank 0 (the end-of-run communication).
  auto reduced = comm.reduce(
      0, accum->to_bytes(),
      [&](std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
        auto left = make_accumulator(config.accum_kind, 0,
                                     ctx.genome.padded_size(),
                                     config.centdisc_quantize);
        auto right = make_accumulator(config.accum_kind, 0,
                                      ctx.genome.padded_size(),
                                      config.centdisc_quantize);
        left->from_bytes(a);
        right->from_bytes(b);
        left->merge(*right);
        return left->to_bytes();
      });

  std::vector<SnpCall> calls;
  if (rank == 0) {
    accum->from_bytes(reduced);
    clock.start();
    calls = call_snps(ctx.genome, *accum, config);
    clock.stop();
  }

  std::lock_guard<std::mutex> lock(ctx.result_mutex);
  ctx.result.stats += stats;
  ctx.result.max_rank_accum_bytes =
      std::max(ctx.result.max_rank_accum_bytes, accum->memory_bytes());
  ctx.result.total_accum_bytes += accum->memory_bytes();
  ctx.result.max_rank_index_bytes =
      std::max(ctx.result.max_rank_index_bytes, index->memory_bytes());
  if (rank == 0) {
    // Rank-local formatting: only rank 0 holds final calls in this mode, so
    // it renders the whole document (locale-independent append API).
    append_snps_tsv(ctx.result.tsv, calls);
    ctx.result.calls = std::move(calls);
  }
}

void run_genome_partition_rank_stream(Communicator& comm,
                                      const StreamAttemptContext& ctx) {
  const int rank = comm.rank();
  const int p = comm.size();
  const PipelineConfig& config = ctx.config;
  Stopwatch& clock = comm.compute_clock();

  // The margin comes from run_distributed (options.max_read_len or a
  // prescan).
  const std::uint64_t margin =
      static_cast<std::uint64_t>(ctx.max_read_len) +
      static_cast<std::uint64_t>(config.window_pad) +
      static_cast<std::uint64_t>(config.seeder.band_width);
  const auto segments = partition_genome(ctx.genome, p, margin);
  for (const auto& s : segments) {
    require(s.core_end - s.core_begin >= margin,
            "run_distributed: genome too small for this many ranks "
            "(segment shorter than the read-length margin)");
  }
  const GenomeSegment& seg = segments[static_cast<std::size_t>(rank)];

  std::optional<HashIndex> index;
  compute_turn(clock, [&] {
    index.emplace(ctx.genome, config.index, seg.store_begin, seg.store_end);
  });
  const ReadMapper mapper(ctx.genome, *index, config);
  auto accum = make_accumulator(config.accum_kind, seg.core_begin,
                                seg.core_end - seg.core_begin,
                                config.centdisc_quantize);
  std::unique_ptr<Accumulator> left_halo, right_halo;
  if (seg.store_begin < seg.core_begin) {
    left_halo = make_accumulator(config.accum_kind, seg.store_begin,
                                 seg.core_begin - seg.store_begin,
                                 config.centdisc_quantize);
  }
  if (seg.store_end > seg.core_end) {
    right_halo = make_accumulator(config.accum_kind, seg.core_end,
                                  seg.store_end - seg.core_end,
                                  config.centdisc_quantize);
  }
  auto accumulate_everywhere = [&](const ScoredSite& site) {
    ReadMapper::accumulate_site(site, *accum);
    if (left_halo) ReadMapper::accumulate_site(site, *left_halo);
    if (right_halo) ReadMapper::accumulate_site(site, *right_halo);
  };
  auto halo_bytes = [](const std::unique_ptr<Accumulator>& halo) {
    return halo ? halo->to_bytes() : std::vector<std::uint8_t>{};
  };

  MapStats stats;
  std::uint64_t mapped_reads = 0;
  auto snapshot = [&](std::uint64_t progress) {
    obs::TraceSpan cp_span("checkpoint_save", "ckpt", "progress",
                           static_cast<double>(progress));
    ctx.store.save(rank,
                   Checkpoint{progress, accum->to_bytes(),
                              halo_bytes(left_halo), halo_bytes(right_halo),
                              stats, mapped_reads},
                   /*keep_history=*/true);
  };
  std::uint64_t batch_begin = ctx.resume_reads;  // global read offset
  if (ctx.fault_mode && ctx.resume_reads > 0) {
    GNUMAP_TRACE_SPAN("checkpoint_restore", "ckpt");
    const auto cp = ctx.store.at(rank, ctx.resume_reads);
    require(cp.has_value(),
            "run_distributed: missing checkpoint at common resume point");
    accum->from_bytes(cp->accum);
    if (left_halo && !cp->left_halo.empty()) {
      left_halo->from_bytes(cp->left_halo);
    }
    if (right_halo && !cp->right_halo.empty()) {
      right_halo->from_bytes(cp->right_halo);
    }
    stats = cp->stats;
    mapped_reads = cp->mapped_reads;
  }

  // Rank 0 re-batches the stream into exactly options.batch_size broadcast
  // payloads — a fixed grid of read offsets — carrying leftover
  // reads between pulls; an empty payload terminates every rank's loop.
  std::deque<Read> carry;
  bool exhausted = false;
  MapperWorkspace ws;
  for (;;) {
    std::vector<std::uint8_t> payload;
    if (rank == 0) {
      ReadBatch pulled;
      while (carry.size() < ctx.options.batch_size && !exhausted) {
        if (ctx.reads.next(pulled)) {
          for (auto& read : pulled.reads) carry.push_back(std::move(read));
        } else {
          exhausted = true;
        }
      }
      const std::size_t n =
          std::min<std::size_t>(carry.size(), ctx.options.batch_size);
      std::vector<Read> batch_reads(
          std::make_move_iterator(carry.begin()),
          std::make_move_iterator(carry.begin() + static_cast<std::ptrdiff_t>(n)));
      carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(n));
      payload = pack_reads(batch_begin, batch_reads);
    }
    ReadPiece piece = unpack_reads(comm.bcast(0, std::move(payload)));
    expect_offset(piece, batch_begin, rank);
    const std::vector<Read> batch = std::move(piece.reads);
    if (batch.empty()) break;
    const std::uint64_t batch_end = batch_begin + batch.size();

    std::vector<double> likelihood_sum(batch.size(), 0.0);
    std::vector<std::vector<ScoredSite>> scored(batch.size());
    compute_turn(clock, [&] {
      scored = mapper.score_reads(
          std::span<const Read>(batch.data(), batch.size()), ws, stats,
          seg.core_begin, seg.core_end);
      for (std::size_t r = 0; r < batch.size(); ++r) {
        for (const auto& site : scored[r]) {
          likelihood_sum[r] += std::exp(site.log_likelihood);
        }
      }
    });

    comm.allreduce_sum(likelihood_sum);

    compute_turn(clock, [&] {
      for (std::size_t r = 0; r < batch.size(); ++r) {
        const double total = likelihood_sum[r];
        if (!(total > 0.0)) continue;
        const double cutoff = std::exp(
            config.min_loglik_per_base *
            static_cast<double>(batch[r].length()));
        if (total < cutoff) continue;
        if (rank == 0) ++mapped_reads;
        for (auto& site : scored[r]) {
          const double weight = std::exp(site.log_likelihood) / total;
          if (weight < config.min_site_posterior) continue;
          site.weight = weight;
          accumulate_everywhere(site);
        }
      }
    });

    comm.step();
    if (ctx.fault_mode && ctx.checkpoint_interval > 0) {
      // Batch boundaries are a fixed grid (multiples of batch_size), so
      // every rank snapshots at the same `progress` values across attempts
      // — the invariant common_progress() relies on.
      const std::uint64_t batches_done =
          (batch_end + ctx.options.batch_size - 1) / ctx.options.batch_size;
      if (batches_done % ctx.checkpoint_interval == 0) snapshot(batch_end);
    }
    batch_begin = batch_end;
  }

  // A stream only learns "that was the last batch" after the fact, so the
  // final snapshot lands here.
  if (ctx.fault_mode) snapshot(batch_begin);

  // Halo exchange: ship the slices that spilled past this rank's core to
  // their owners, and fold the neighbors' spill into this core.  One
  // message to each neighbor; merged position-by-position because the
  // halo range is a sub-range of the receiver's core.  mpsim sends are
  // buffered, so everyone sends first, then receives.
  constexpr int kHaloLeftTag = 101;
  constexpr int kHaloRightTag = 102;
  auto fold_halo = [&](const std::vector<std::uint8_t>& bytes,
                       GenomePos begin, GenomePos end) {
    if (bytes.empty()) return;
    auto temp = make_accumulator(config.accum_kind, begin, end - begin,
                                 config.centdisc_quantize);
    temp->from_bytes(bytes);
    for (const PositionRange& run : temp->resident_ranges()) {
      for (GenomePos pos = run.begin; pos < run.end; ++pos) {
        const TrackVector counts = temp->counts(pos);
        bool any = false;
        for (const float v : counts) any |= v > 0.0f;
        if (any) accum->add(pos, counts);
      }
    }
  };
  if (p > 1) {
    GNUMAP_TRACE_SPAN("halo_exchange", "comm");
    if (rank > 0) comm.send(rank - 1, kHaloLeftTag, halo_bytes(left_halo));
    if (rank + 1 < p) {
      comm.send(rank + 1, kHaloRightTag, halo_bytes(right_halo));
    }
    if (rank + 1 < p) {
      const auto& next = segments[static_cast<std::size_t>(rank + 1)];
      fold_halo(comm.recv(rank + 1, kHaloLeftTag), next.store_begin,
                next.core_begin);
    }
    if (rank > 0) {
      const auto& prev = segments[static_cast<std::size_t>(rank - 1)];
      fold_halo(comm.recv(rank - 1, kHaloRightTag), prev.core_end,
                prev.store_end);
    }
  }

  std::vector<SnpCall> local_calls;
  compute_turn(clock, [&] {
    local_calls =
        call_snps(ctx.genome, *accum, config, seg.core_begin, seg.core_end);
  });
  auto gathered = comm.gather(0, serialize_rank_output(local_calls));

  std::lock_guard<std::mutex> lock(ctx.result_mutex);
  // Every rank saw every read; count the stream once, at rank 0, where
  // batch_begin ended up equal to the stream length.
  stats.reads_total = rank == 0 ? batch_begin : 0;
  stats.reads_mapped = rank == 0 ? mapped_reads : 0;
  ctx.result.stats += stats;
  ctx.result.max_rank_accum_bytes =
      std::max(ctx.result.max_rank_accum_bytes, accum->memory_bytes());
  ctx.result.total_accum_bytes += accum->memory_bytes();
  ctx.result.max_rank_index_bytes =
      std::max(ctx.result.max_rank_index_bytes, index->memory_bytes());
  if (rank == 0) {
    splice_rank_outputs(gathered, ctx.result.tsv, ctx.result.calls);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// run_distributed: the recovery driver.
//
// Fault-free runs execute the world exactly once, with no timeouts and no
// checkpoints — bit-identical to the substrate without this layer.  With a
// FaultPlan, the driver loops: each attempt runs the world with a recv
// timeout and periodic checkpoints; if the attempt aborts on a CommError
// (injected crash, dropped message, peer death), the next attempt restores
// from the checkpoints and replays the stream, restarting the failed rank.
// Non-communication exceptions (real bugs) propagate immediately.

DistResult run_distributed(const Genome& genome, ReadStream& reads,
                           const PipelineConfig& config,
                           const DistOptions& options,
                           const HashIndex* shared_index) {
  require(options.ranks >= 1, "run_distributed: ranks must be >= 1");
  require(options.batch_size >= 1, "run_distributed: batch_size must be >= 1");
  require(options.max_attempts >= 1,
          "run_distributed: max_attempts must be >= 1");
  require(reads.cursor() == 0,
          "run_distributed: stream must be positioned at its start");

  obs::set_trace_metadata("ranks", std::to_string(options.ranks));
  obs::set_trace_metadata("dist_mode",
                          options.mode == DistMode::kReadPartition
                              ? "read_partition"
                              : "genome_partition");
  obs::set_trace_metadata(
      "simd_level",
      phmm::simd_level_name(phmm::resolve_simd_level(config.simd)));

  const bool fault_mode = !options.faults.empty();

  std::uint32_t max_read_len = options.max_read_len;
  if (options.mode == DistMode::kGenomePartition && max_read_len == 0) {
    // The overlap margin needs the longest read before any segment exists;
    // without the hint, burn one pass over the stream to measure it.
    ReadBatch prescan;
    while (reads.next(prescan)) {
      for (const auto& read : prescan.reads) {
        max_read_len =
            std::max(max_read_len, static_cast<std::uint32_t>(read.length()));
      }
    }
    require(reads.reset(),
            "run_distributed: genome-partition margin prescan needs a "
            "resettable stream (or set DistOptions::max_read_len)");
  }
  if (fault_mode) {
    require(reads.reset(),
            "run_distributed: fault tolerance needs a resettable stream "
            "(recovery rewinds and replays it)");
  }

  FaultState fault_state(options.faults);
  WorldOptions world_options;
  world_options.faults = fault_mode ? &fault_state : nullptr;
  world_options.recv_timeout_seconds =
      options.recv_timeout_seconds > 0.0
          ? options.recv_timeout_seconds
          : (fault_mode ? 5.0 : 0.0);

  std::uint64_t checkpoint_interval = options.checkpoint_interval;
  if (fault_mode && checkpoint_interval == 0) {
    if (options.mode == DistMode::kReadPartition) {
      const auto hint = reads.size_hint();
      checkpoint_interval =
          hint.has_value()
              ? std::max<std::uint64_t>(
                    1, *hint / static_cast<std::uint64_t>(options.ranks) / 4)
              : 1024;
    } else {
      checkpoint_interval = 1;  // every broadcast batch
    }
  }

  const int max_attempts = fault_mode ? options.max_attempts : 1;

  CheckpointStore store(options.ranks);
  std::vector<int> failed_ranks;
  std::vector<std::vector<RankCost>> attempt_costs;
  Timer wall;

  for (int attempt = 0;; ++attempt) {
    DistResult result;
    result.costs.resize(static_cast<std::size_t>(options.ranks));
    std::mutex result_mutex;

    // Genome-partition recovery rewinds every rank to the last broadcast
    // boundary they all snapshotted and fast-forwards the stream to it;
    // read-partition recovery drops each rank's restored prefix at the
    // pump instead (per-rank progress differs there).
    std::uint64_t resume_reads = 0;
    if (fault_mode && options.mode == DistMode::kGenomePartition) {
      resume_reads = store.common_progress();
    }
    if (attempt > 0) {
      require(reads.reset(),
              "run_distributed: stream reset failed during recovery");
      if (resume_reads > 0) {
        require(reads.skip(resume_reads) == resume_reads,
                "run_distributed: stream ended before the recovery resume "
                "point");
      }
    }

    StreamAttemptContext ctx{genome,
                             reads,
                             config,
                             options,
                             shared_index,
                             store,
                             fault_mode,
                             checkpoint_interval,
                             resume_reads,
                             max_read_len,
                             result,
                             result_mutex};

    obs::TraceSpan attempt_span("attempt", "dist", "attempt",
                                static_cast<double>(attempt));
    const WorldRun run = run_world_collect(
        options.ranks, world_options, [&](Communicator& comm) {
          if (options.mode == DistMode::kReadPartition) {
            run_read_partition_rank_stream(comm, ctx);
          } else {
            run_genome_partition_rank_stream(comm, ctx);
          }
        });

    std::vector<RankCost> costs(static_cast<std::size_t>(options.ranks));
    for (int r = 0; r < options.ranks; ++r) {
      costs[static_cast<std::size_t>(r)].compute_seconds =
          run.compute_seconds[static_cast<std::size_t>(r)];
      costs[static_cast<std::size_t>(r)].comm =
          run.stats[static_cast<std::size_t>(r)];
    }
    attempt_costs.push_back(std::move(costs));

    if (!run.error) {
      result.costs = attempt_costs.back();
      result.recovery.attempts = attempt + 1;
      result.recovery.failed_ranks = failed_ranks;
      const RecoveryCost rc = recovery_cost(attempt_costs, CostModelParams{});
      result.recovery.resent_messages = rc.resent_messages;
      result.recovery.resent_bytes = rc.resent_bytes;
      result.recovery.redone_compute_seconds = rc.redone_compute_seconds;
      result.attempt_costs = std::move(attempt_costs);
      result.wall_seconds = wall.seconds();
      publish_dist_result(result);
      return result;
    }

    obs::record_instant("attempt_failed", "dist", "failed_rank",
                        static_cast<double>(run.failed_rank));
    failed_ranks.push_back(run.failed_rank);
    try {
      std::rethrow_exception(run.error);
    } catch (const CommError&) {
      // Retryable: injected crash, dropped-message timeout, or the
      // cascade of RankFailedErrors a dying peer causes.
      if (attempt + 1 >= max_attempts) throw;
    }
    // Anything that is not a CommError escaped the catch above and has
    // already propagated: real bugs are not retried.
  }
}

DistResult run_distributed(const Genome& genome,
                           const std::vector<Read>& reads,
                           const PipelineConfig& config,
                           const DistOptions& options,
                           const HashIndex* shared_index) {
  DistOptions measured = options;
  if (measured.max_read_len == 0) {
    for (const auto& read : reads) {
      measured.max_read_len = std::max(
          measured.max_read_len, static_cast<std::uint32_t>(read.length()));
    }
  }
  VectorReadStream stream(reads, config.stream_batch);
  return run_distributed(genome, stream, config, measured, shared_index);
}

}  // namespace gnumap
