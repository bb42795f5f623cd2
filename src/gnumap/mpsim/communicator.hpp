// In-process message-passing runtime: the cluster substrate.
//
// The paper runs GNUMAP over MPI on up to 30 machines.  There is no MPI
// here, so ranks are threads with mailbox queues and the MPI
// subset GNUMAP needs is implemented on top: point-to-point send/recv,
// barrier, broadcast, reduce, allreduce, gather — the collectives using
// binomial trees like a real MPI implementation, so the *message pattern*
// (who talks to whom, how many bytes) matches what a cluster would see.
// Every byte is counted per rank; the cost model (cost_model.hpp) turns the
// counts plus measured compute time into simulated cluster wall-clock.
// Compute time is each rank thread's CPU time, so a 30-rank world on a
// few cores does not count time a rank spent waiting for a core.
//
// Programming model is SPMD exactly as in MPI: every rank runs the same
// function and must call collectives in the same order.  Collective calls
// are sequence-numbered to keep back-to-back collectives from cross-talking.
//
// Failure semantics (the fault-tolerance layer):
//  * When any rank exits its body by exception, the world aborts: every
//    blocked receiver wakes and throws RankFailedError, so run_world never
//    deadlocks on a dead peer and the first exception wins the rethrow.
//  * A receiver waiting on a rank that already returned cleanly (and so can
//    never send again) throws RankFailedError instead of hanging.
//  * WorldOptions::recv_timeout_seconds bounds every blocking wait; on
//    expiry the receiver throws CommError (covers dropped messages).
//  * WorldOptions::faults points at a FaultState (fault.hpp) to inject
//    crashes, message drops/delays, and compute slowdown deterministically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "gnumap/mpsim/fault.hpp"
#include "gnumap/obs/metrics.hpp"
#include "gnumap/util/timer.hpp"

namespace gnumap {

/// Per-rank communication counters (for the cost model), plus the rank's
/// failure-detection state.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  /// Blocking waits that expired (dropped message or silent peer).
  std::uint64_t recv_timeouts = 0;
  /// Blocking waits aborted because a peer rank died or exited early.
  std::uint64_t peer_failures_seen = 0;
};

/// World-wide runtime knobs; defaults reproduce the fault-free substrate.
struct WorldOptions {
  /// Upper bound for every blocking receive/collective wait; 0 waits
  /// forever (abort-on-peer-death still applies).
  double recv_timeout_seconds = 0.0;
  /// Fault injector shared by all ranks; nullptr disables injection.
  FaultState* faults = nullptr;
};

class World;

class Communicator {
 public:
  Communicator(World& world, int rank);

  int rank() const { return rank_; }
  int size() const;

  /// Blocking tagged send (buffered: never deadlocks on unmatched sends).
  void send(int dest, int tag, std::vector<std::uint8_t> payload);
  /// Blocking receive matching (source, tag); FIFO per (source, tag) pair.
  /// Throws CommError on timeout, RankFailedError if the peer died.
  std::vector<std::uint8_t> recv(int source, int tag);

  /// Typed convenience wrappers.
  void send_u64(int dest, int tag, std::uint64_t value);
  std::uint64_t recv_u64(int source, int tag);
  void send_doubles(int dest, int tag, std::span<const double> values);
  std::vector<double> recv_doubles(int source, int tag);

  /// Binomial-tree collectives.  All ranks must participate in order.
  void barrier();
  std::vector<std::uint8_t> bcast(int root, std::vector<std::uint8_t> data);
  /// Element-wise sum of double vectors; result valid on root only.
  void reduce_sum(std::span<double> inout, int root);
  /// Element-wise sum, result on all ranks.
  void allreduce_sum(std::span<double> inout);
  /// Generic reduce with a user combine on opaque byte payloads (used for
  /// accumulator merges).  Result valid on root only.
  using Combine = std::function<std::vector<std::uint8_t>(
      std::vector<std::uint8_t>, std::vector<std::uint8_t>)>;
  std::vector<std::uint8_t> reduce(int root, std::vector<std::uint8_t> local,
                                   const Combine& combine);
  /// Gathers each rank's payload at root (index = rank); empty elsewhere.
  std::vector<std::vector<std::uint8_t>> gather(
      int root, std::vector<std::uint8_t> data);

  /// Application progress tick: advances this rank's fault-step counter so
  /// a scripted crash can land mid-compute (e.g. between checkpoints), not
  /// only at communication operations.  No-op without fault injection.
  void step();

  const CommStats& stats() const { return stats_; }

  /// Compute-time attribution for the cost model; the application brackets
  /// its compute phases with start()/stop().  The clock counts this rank
  /// thread's CPU time (CLOCK_THREAD_CPUTIME_ID), so time spent waiting for
  /// a core is excluded even when ranks outnumber the host's cores; only
  /// the rank's own thread may start, stop, or sample it.
  Stopwatch& compute_clock() { return compute_clock_; }
  /// Accumulated compute seconds scaled by any injected slowdown.  Safe to
  /// sample mid-turn (on the rank's thread): an interval still open on the
  /// clock is included.
  double scaled_compute_seconds() const;

 private:
  int collective_tag();
  /// One fault step: every comm op and every step() call consults the
  /// injector and throws InjectedCrash when scripted to.
  void fault_step();
  /// Tagged send used by collectives (skips the app-tag range check).
  void raw_send(int dest, int tag, std::vector<std::uint8_t> payload);
  /// world_.await plus failure-detection accounting.
  std::vector<std::uint8_t> await_msg(int source, int tag);

  World& world_;
  int rank_;
  CommStats stats_;
  Stopwatch compute_clock_;
  int collective_seq_ = 0;
  std::uint64_t step_count_ = 0;
  std::uint64_t send_count_ = 0;
  /// Message-wait latency (gnumap_comm_wait_seconds); resolved once here so
  /// the await path never takes the registry lock.
  obs::Histogram& wait_histogram_;
};

/// Owns the mailboxes and per-rank liveness state; created by run_world.
class World {
 public:
  explicit World(int size, WorldOptions options = {});

  int size() const { return static_cast<int>(mailboxes_.size()); }
  const WorldOptions& options() const { return options_; }

  void deliver(int dest, int source, int tag,
               std::vector<std::uint8_t> payload);
  /// Blocks until a matching message arrives.  Throws RankFailedError when
  /// any rank has failed (world aborted) or `source` exited without the
  /// message ever being sent; throws CommError on timeout.
  std::vector<std::uint8_t> await(int dest, int source, int tag);

  /// Marks `rank` failed and wakes every blocked receiver; the first call
  /// wins first_failed_rank().  Idempotent.
  void abort(int rank);
  /// Marks `rank` cleanly finished and wakes every blocked receiver (so a
  /// wait on a rank that can never send again fails fast instead of
  /// hanging).
  void mark_finished(int rank);
  /// Rank of the first failure, or -1 if no rank has failed.
  int first_failed_rank() const { return first_failed_.load(); }

 private:
  enum RankState : std::uint8_t { kRunning = 0, kFinished = 1, kFailed = 2 };

  struct Message {
    int source;
    int tag;
    std::vector<std::uint8_t> payload;
  };
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Message> queue;
  };

  void wake_all();

  WorldOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<std::atomic<std::uint8_t>>> rank_state_;
  std::atomic<int> first_failed_{-1};
};

/// Outcome of one world execution, surfaced without throwing so callers
/// (checkpoint/restart drivers) can account for failed attempts.
struct WorldRun {
  std::vector<CommStats> stats;          ///< per-rank counters (even on failure)
  std::vector<double> compute_seconds;   ///< per-rank, slowdown-scaled
  int failed_rank = -1;                  ///< first rank to fail, or -1
  std::exception_ptr error;              ///< the first failure's exception
};

/// Runs `body` on `world_size` rank-threads and reports the outcome.  When a
/// rank throws, the world aborts (peers blocked in await wake with
/// RankFailedError) and `error` carries the first failure's exception.
WorldRun run_world_collect(int world_size, const WorldOptions& options,
                           const std::function<void(Communicator&)>& body);

/// Runs `body` on `world_size` rank-threads; returns each rank's final
/// communication counters (indexed by rank).  If any rank threw, the first
/// rank's exception (in failure order) is rethrown after all ranks have
/// been joined — peers blocked on the failed rank are woken, never
/// deadlocked.
std::vector<CommStats> run_world(
    int world_size, const std::function<void(Communicator&)>& body);
std::vector<CommStats> run_world(
    int world_size, const WorldOptions& options,
    const std::function<void(Communicator&)>& body);

}  // namespace gnumap
