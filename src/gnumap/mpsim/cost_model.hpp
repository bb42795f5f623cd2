// Alpha-beta cluster cost model.
//
// Ranks are threads on one host, so thread-per-rank wall clock says nothing
// about multi-node scaling.  Instead each rank's *measured* compute time
// (Communicator::compute_clock) and *counted* communication volume
// (CommStats) are combined under the classic alpha-beta model:
//
//     t_rank = compute + messages * alpha + bytes / beta
//     makespan = max over ranks of t_rank
//
// alpha is the per-message latency and beta the link bandwidth; the defaults
// model the gigabit-Ethernet-class cluster of the paper's era.  DESIGN.md
// documents this substitution: the communication *volume* is real (every
// byte was actually sent through mpsim); only the network constants are
// assumed.
//
// Ranks run concurrently, and may outnumber the host's cores.  Their
// compute clocks therefore count each rank thread's own CPU time
// (CLOCK_THREAD_CPUTIME_ID), which excludes time spent waiting for a core,
// so contention does not inflate a rank's compute seconds; see
// core/dist_modes.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "gnumap/mpsim/communicator.hpp"

namespace gnumap {

struct CostModelParams {
  /// Per-message latency, seconds (default: 50 us, GigE-era cluster).
  double alpha = 50e-6;
  /// Link bandwidth, bytes/second (default: 1 Gbit/s).
  double beta = 125e6;
};

struct RankCost {
  double compute_seconds = 0.0;
  CommStats comm;
};

/// Simulated time for one rank.
double rank_time(const RankCost& cost, const CostModelParams& params);

/// Simulated parallel makespan: the slowest rank.
double simulated_makespan(const std::vector<RankCost>& costs,
                          const CostModelParams& params);

/// Aggregate communication seconds across all ranks (diagnostics).
double total_comm_seconds(const std::vector<RankCost>& costs,
                          const CostModelParams& params);

// ---------------------------------------------------------------------------
// Recovery accounting (fault-injected runs).
//
// A faulty run is a sequence of attempts: zero or more aborted ones (a rank
// crashed, a message was lost) followed by the attempt that completed from
// the last checkpoints.  Every byte moved and every compute second burned in
// an aborted attempt is recovery cost: the bytes must be re-sent and the
// uncheckpointed compute redone.  run_distributed records the per-attempt
// RankCost vectors so the Figure-4 style reproductions can report simulated
// wall-clock under injected faults, not just the fault-free makespan.

/// What the failed attempts cost (everything before the final attempt).
struct RecoveryCost {
  int restarts = 0;  ///< number of aborted attempts
  std::uint64_t resent_messages = 0;
  std::uint64_t resent_bytes = 0;
  double redone_compute_seconds = 0.0;
  /// α–β seconds of the aborted attempts (each attempt's makespan).
  double recovery_seconds = 0.0;
};

/// Sums the cost of every attempt except the final (successful) one.
RecoveryCost recovery_cost(const std::vector<std::vector<RankCost>>& attempts,
                           const CostModelParams& params);

/// Simulated wall-clock of the whole faulty run: failure detection and
/// restart serialize, so attempts' makespans add.
double simulated_makespan_with_recovery(
    const std::vector<std::vector<RankCost>>& attempts,
    const CostModelParams& params);

}  // namespace gnumap
