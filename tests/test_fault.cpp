// Fault-injection tests: communicator hardening (timeouts, abort-on-death,
// injected crashes) and checkpoint/restart recovery in both distributed
// modes, including chaos plans drawn from seeds.  Every test here must
// terminate even when the injected fault would naively deadlock a
// collective; the suite runs under a ctest-level timeout as a backstop.
#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gnumap/core/dist_modes.hpp"
#include "gnumap/core/pipeline.hpp"
#include "gnumap/io/fastq.hpp"
#include "gnumap/io/snp_catalog.hpp"
#include "gnumap/mpsim/communicator.hpp"
#include "gnumap/mpsim/cost_model.hpp"
#include "gnumap/mpsim/fault.hpp"
#include "gnumap/sim/catalog_gen.hpp"
#include "gnumap/sim/mutator.hpp"
#include "gnumap/sim/read_sim.hpp"
#include "gnumap/sim/reference_gen.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {
namespace {

// ---------------------------------------------------------------------------
// Communicator-level failure semantics.

TEST(FaultWorld, PeerDeathWakesBlockedReceiver) {
  // Rank 1 dies while rank 0 is blocked in recv on it: the world must wake
  // rank 0 (no deadlock) and rethrow rank 1's original exception.
  try {
    run_world(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.recv(1, 7);  // never sent
        FAIL() << "recv returned from a dead peer";
      } else {
        throw ConfigError("rank 1 exploded");
      }
    });
    FAIL() << "run_world did not rethrow";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "rank 1 exploded");
  }
}

TEST(FaultWorld, RecvFromFinishedRankFailsFast) {
  // A rank that returned cleanly can never send again; waiting on it must
  // throw RankFailedError instead of hanging.
  const WorldRun run =
      run_world_collect(2, WorldOptions{}, [](Communicator& comm) {
        if (comm.rank() == 0) comm.recv(1, 7);
      });
  ASSERT_EQ(run.failed_rank, 0);
  ASSERT_TRUE(run.error);
  EXPECT_THROW(std::rethrow_exception(run.error), RankFailedError);
  EXPECT_EQ(run.stats[0].peer_failures_seen, 1u);
}

TEST(FaultWorld, RecvTimeoutThrowsCommError) {
  WorldOptions options;
  options.recv_timeout_seconds = 0.05;
  // Mutual recv with no matching sends: both ranks must time out (the
  // classic deadlock) instead of blocking forever.
  const WorldRun run = run_world_collect(2, options, [](Communicator& comm) {
    comm.recv(1 - comm.rank(), 9);
  });
  ASSERT_GE(run.failed_rank, 0);
  ASSERT_TRUE(run.error);
  EXPECT_THROW(std::rethrow_exception(run.error), CommError);
  EXPECT_EQ(run.stats[static_cast<std::size_t>(run.failed_rank)].recv_timeouts,
            1u);
}

TEST(FaultWorld, InjectedCrashAbortsWorld) {
  FaultState faults(FaultPlan().crash(1, 2));
  WorldOptions options;
  options.faults = &faults;
  const WorldRun run = run_world_collect(3, options, [](Communicator& comm) {
    for (int i = 0; i < 8; ++i) comm.barrier();
  });
  EXPECT_EQ(run.failed_rank, 1);
  ASSERT_TRUE(run.error);
  try {
    std::rethrow_exception(run.error);
    FAIL() << "no exception stored";
  } catch (const InjectedCrash& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  EXPECT_EQ(faults.fired_count(), 1u);
}

TEST(FaultWorld, DroppedMessageTimesOutAndIsCountedAsSent) {
  FaultState faults(FaultPlan().drop(0, 0));
  WorldOptions options;
  options.faults = &faults;
  options.recv_timeout_seconds = 0.05;
  const WorldRun run = run_world_collect(2, options, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {1, 2, 3});
      // Stay alive well past rank 1's timeout so the drop surfaces there as
      // a timeout, not as a peer-exit error (and without arming rank 0's
      // own timer, which could win the abort race).
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    } else {
      comm.recv(0, 5);
    }
  });
  EXPECT_EQ(run.failed_rank, 1);
  // The bytes hit the wire (sender pays) but never arrive.
  EXPECT_EQ(run.stats[0].messages_sent, 1u);
  EXPECT_EQ(run.stats[0].bytes_sent, 3u);
  EXPECT_EQ(run.stats[1].messages_received, 0u);
  EXPECT_EQ(run.stats[1].recv_timeouts, 1u);
  ASSERT_TRUE(run.error);
  EXPECT_THROW(std::rethrow_exception(run.error), CommError);
}

TEST(FaultWorld, DelayedMessageStillDelivered) {
  FaultState faults(FaultPlan().delay(0, 0, 0.01));
  WorldOptions options;
  options.faults = &faults;
  const WorldRun run = run_world_collect(2, options, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {42});
    } else {
      EXPECT_EQ(comm.recv(0, 5), std::vector<std::uint8_t>{42});
    }
  });
  EXPECT_EQ(run.failed_rank, -1);
  EXPECT_FALSE(run.error);
}

TEST(FaultWorld, SlowComputeScalesAttributedTime) {
  FaultState faults(FaultPlan().slow(1, 3.0));
  WorldOptions options;
  options.faults = &faults;
  const WorldRun run = run_world_collect(2, options, [](Communicator& comm) {
    comm.compute_clock().add_seconds(1.0);
  });
  ASSERT_FALSE(run.error);
  EXPECT_DOUBLE_EQ(run.compute_seconds[0], 1.0);
  EXPECT_DOUBLE_EQ(run.compute_seconds[1], 3.0);
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  const auto a = FaultPlan::random(17, 4);
  const auto b = FaultPlan::random(17, 4);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
  }
  EXPECT_FALSE(a.empty());
}

// ---------------------------------------------------------------------------
// End-to-end recovery: the pipeline under injected faults must produce the
// same SNP calls as the fault-free run.

struct Workload {
  Genome ref;
  SnpCatalog catalog;
  std::vector<Read> reads;
};

Workload make_workload(std::uint64_t length = 20000, double coverage = 6.0) {
  ReferenceGenOptions ref_options;
  ref_options.length = length;
  ref_options.repeat_fraction = 0.0;
  ref_options.n_fraction = 0.0;
  Workload w;
  w.ref = generate_reference(ref_options);
  CatalogGenOptions catalog_options;
  catalog_options.count = 12;
  w.catalog = generate_catalog(w.ref, catalog_options);
  const Genome individual = apply_catalog(w.ref, w.catalog);
  ReadSimOptions sim_options;
  sim_options.coverage = coverage;
  w.reads = strip_metadata(simulate_reads(individual, sim_options));
  return w;
}

PipelineConfig test_config() {
  PipelineConfig config;
  config.index.k = 9;
  config.alpha = 1e-4;
  return config;
}

std::set<std::uint64_t> positions(const std::vector<SnpCall>& calls) {
  std::set<std::uint64_t> out;
  for (const auto& call : calls) out.insert(call.position);
  return out;
}

void expect_identical_calls(const std::vector<SnpCall>& expected,
                            const std::vector<SnpCall>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].contig, actual[i].contig);
    EXPECT_EQ(expected[i].position, actual[i].position);
    EXPECT_EQ(expected[i].ref, actual[i].ref);
    EXPECT_EQ(expected[i].allele1, actual[i].allele1);
    EXPECT_EQ(expected[i].allele2, actual[i].allele2);
    // Restart replays from exact serialized state: bit-identical scores.
    EXPECT_EQ(expected[i].coverage, actual[i].coverage);
    EXPECT_EQ(expected[i].lrt_stat, actual[i].lrt_stat);
    EXPECT_EQ(expected[i].p_value, actual[i].p_value);
  }
}

DistOptions base_options(DistMode mode, int ranks) {
  DistOptions options;
  options.ranks = ranks;
  options.mode = mode;
  options.batch_size = 128;
  // recv_timeout_seconds is left at 0: fault-free runs wait forever (the
  // abort-on-death path still prevents deadlock) and fault runs pick the
  // generous default, so slow CI machines cannot trip false timeouts.
  return options;
}

TEST(FaultRecovery, ReadPartitionCrashRestartsFromCheckpoint) {
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  const auto clean =
      run_distributed(w.ref, w.reads, config,
                      base_options(DistMode::kReadPartition, 3));

  auto options = base_options(DistMode::kReadPartition, 3);
  options.faults.crash(1, 40);  // mid-shard, between checkpoints
  const auto faulty = run_distributed(w.ref, w.reads, config, options);

  EXPECT_EQ(faulty.recovery.attempts, 2);
  ASSERT_EQ(faulty.recovery.failed_ranks, std::vector<int>{1});
  expect_identical_calls(clean.calls, faulty.calls);
  EXPECT_EQ(faulty.stats.reads_total, clean.stats.reads_total);
  EXPECT_EQ(faulty.stats.reads_mapped, clean.stats.reads_mapped);
  // Recovery accounting: the aborted attempt's traffic and compute are
  // recorded, and the simulated wall-clock with recovery dominates the
  // fault-free makespan.
  ASSERT_EQ(faulty.attempt_costs.size(), 2u);
  const CostModelParams params;
  EXPECT_GE(simulated_makespan_with_recovery(faulty.attempt_costs, params),
            simulated_makespan(faulty.costs, params));
  const auto rc = recovery_cost(faulty.attempt_costs, params);
  EXPECT_EQ(rc.restarts, 1);
  EXPECT_EQ(faulty.recovery.redone_compute_seconds, rc.redone_compute_seconds);
}

TEST(FaultRecovery, GenomePartitionCrashRestartsFromCommonCheckpoint) {
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  const auto clean =
      run_distributed(w.ref, w.reads, config,
                      base_options(DistMode::kGenomePartition, 3));

  auto options = base_options(DistMode::kGenomePartition, 3);
  options.faults.crash(1, 5);  // during the second broadcast batch
  const auto faulty = run_distributed(w.ref, w.reads, config, options);

  EXPECT_EQ(faulty.recovery.attempts, 2);
  ASSERT_EQ(faulty.recovery.failed_ranks, std::vector<int>{1});
  expect_identical_calls(clean.calls, faulty.calls);
  EXPECT_EQ(faulty.stats.reads_total, clean.stats.reads_total);
  EXPECT_EQ(faulty.stats.reads_mapped, clean.stats.reads_mapped);
}

TEST(FaultRecovery, DroppedReduceMessageRetriesAndMatches) {
  const Workload w = make_workload();
  const PipelineConfig config = test_config();
  const auto clean =
      run_distributed(w.ref, w.reads, config,
                      base_options(DistMode::kReadPartition, 2));

  auto options = base_options(DistMode::kReadPartition, 2);
  options.recv_timeout_seconds = 0.5;
  options.faults.drop(1, 0);  // rank 1's reduce contribution is lost
  const auto faulty = run_distributed(w.ref, w.reads, config, options);

  EXPECT_EQ(faulty.recovery.attempts, 2);
  expect_identical_calls(clean.calls, faulty.calls);
  EXPECT_GT(faulty.recovery.resent_bytes, 0u);
}

TEST(FaultRecovery, PermanentFaultExhaustsAttemptsAndRethrows) {
  const Workload w = make_workload(12000, 3.0);
  auto options = base_options(DistMode::kReadPartition, 2);
  options.max_attempts = 2;
  // Two crashes on the same rank: the second fires on the restarted
  // attempt, exhausting the budget.
  options.faults.crash(1, 10).crash(1, 12);
  EXPECT_THROW(run_distributed(w.ref, w.reads, test_config(), options),
               CommError);
}

TEST(FaultRecovery, FaultFreeCommCountsUnchangedByMachinery) {
  const Workload w = make_workload(12000, 4.0);
  const PipelineConfig config = test_config();
  for (const DistMode mode :
       {DistMode::kReadPartition, DistMode::kGenomePartition}) {
    const auto plain =
        run_distributed(w.ref, w.reads, config, base_options(mode, 3));
    // A delay-only plan exercises the full fault path (timeouts armed,
    // checkpoints taken) without aborting anything: every per-rank counter
    // must match the plain run exactly.
    auto options = base_options(mode, 3);
    options.faults.delay(0, 0, 1e-4);
    const auto delayed = run_distributed(w.ref, w.reads, config, options);
    EXPECT_EQ(delayed.recovery.attempts, 1);
    for (int r = 0; r < 3; ++r) {
      const auto& a = plain.costs[static_cast<std::size_t>(r)].comm;
      const auto& b = delayed.costs[static_cast<std::size_t>(r)].comm;
      EXPECT_EQ(a.messages_sent, b.messages_sent) << "rank " << r;
      EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "rank " << r;
      EXPECT_EQ(a.messages_received, b.messages_received) << "rank " << r;
      EXPECT_EQ(a.bytes_received, b.bytes_received) << "rank " << r;
    }
    expect_identical_calls(plain.calls, delayed.calls);
  }
}

// Chaos: seeded random plans (crash + drop + delay) against both modes must
// converge to the fault-free calls within the attempt budget — and, because
// every blocking wait is bounded, must terminate.
class ChaosPlans
    : public ::testing::TestWithParam<std::tuple<DistMode, std::uint64_t>> {};

TEST_P(ChaosPlans, ConvergesToFaultFreeCalls) {
  const auto [mode, seed] = GetParam();
  const Workload w = make_workload(15000, 5.0);
  const PipelineConfig config = test_config();
  const int ranks = 3;
  const auto clean =
      run_distributed(w.ref, w.reads, config, base_options(mode, ranks));

  auto options = base_options(mode, ranks);
  RandomFaultOptions chaos;
  chaos.max_step = 40;
  chaos.max_send = 8;
  chaos.max_delay_seconds = 2e-3;
  options.faults = FaultPlan::random(seed, ranks, chaos);
  options.recv_timeout_seconds = 0.75;
  options.max_attempts = 10;
  const auto faulty = run_distributed(w.ref, w.reads, config, options);

  EXPECT_EQ(positions(clean.calls), positions(faulty.calls))
      << "mode=" << static_cast<int>(mode) << " seed=" << seed
      << " attempts=" << faulty.recovery.attempts;
  EXPECT_EQ(faulty.stats.reads_total, clean.stats.reads_total);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ChaosPlans,
    ::testing::Combine(::testing::Values(DistMode::kReadPartition,
                                         DistMode::kGenomePartition),
                       ::testing::Values(1u, 2u, 3u, 4u)));

// ---------------------------------------------------------------------------
// Negative paths: malformed input and silent peers produce the exact error
// types the CLIs report, not hangs or aborts.

TEST(NegativePaths, TruncatedFastqThrowsParseError) {
  std::istringstream in("@r1\nACGT\n+");  // separator present, quals missing
  try {
    read_fastq(in);
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated record"),
              std::string::npos);
  }
}

TEST(NegativePaths, BadCatalogLineThrowsParseError) {
  std::istringstream in("chr1\t100\tA\n");  // only 3 fields
  try {
    read_catalog(in);
    FAIL() << "no exception";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected >=4"), std::string::npos);
  }
}

TEST(NegativePaths, BadCatalogAlleleThrowsParseError) {
  std::istringstream in("chr1\t100\tA\tXY\n");
  EXPECT_THROW(read_catalog(in), ParseError);
}

TEST(NegativePaths, RecvTimeoutIsCommErrorNotRankFailure) {
  WorldOptions options;
  options.recv_timeout_seconds = 0.05;
  const WorldRun run = run_world_collect(2, options, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.recv(1, 3);  // rank 1 stays alive but silent, then blocks too
    }
    comm.barrier();
  });
  ASSERT_TRUE(run.error);
  try {
    std::rethrow_exception(run.error);
    FAIL() << "no exception stored";
  } catch (const RankFailedError&) {
    FAIL() << "timeout misreported as peer death";
  } catch (const CommError&) {
    // expected: the bounded wait expired
  }
}

}  // namespace
}  // namespace gnumap
